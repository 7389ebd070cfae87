package main

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"
)

// The wire replay sends the traced run's sample through daemons of its
// own: a single-node igpartd, and a coordinator (journal on) whose only
// backend it is. It times the HTTP, service and relay layers on every
// workload's inputs, also where the workload itself bypasses a layer
// (scale-eigen runs the CLI; paper-cold and eco-warm use no coordinator),
// so that every traced run reports every layer.

// wireReplay submits each input cold through the coordinator, reads the
// node's own record of the job, resubmits the input straight to the node
// (a cache hit) and reads the finished job once more. Values are medians
// over the inputs; errs lists the inputs whose results failed a check.
func wireReplay(bin, dir string, inputs []*netlist) (map[string]float64, []string, error) {
	node, err := startDaemon(bin, "wire igpartd")
	if err != nil {
		return nil, nil, err
	}
	coord, err := startDaemon(bin, "wire coordinator", "-coordinator",
		"-backends", "n1="+node.url(), "-journal", filepath.Join(dir, "wire-journal.jsonl"))
	if err != nil {
		_ = node.stop() // the start error is the one to report
		return nil, nil, err
	}
	via, direct := newAPIClient(coord.url()), newAPIClient(node.url())
	vals := make(map[string][]float64)
	var errs []string
	for _, n := range inputs {
		if err := wireOne(via, direct, n, vals); err != nil {
			errs = append(errs, fmt.Sprintf("wire %s: %v", n.label, err))
		}
	}
	via.close()
	direct.close()
	if err := stopDaemons(coord, node); err != nil {
		errs = append(errs, err.Error())
	}
	metrics := make(map[string]float64)
	for name, vs := range vals {
		metrics[name] = median(vs)
	}
	return metrics, errs, nil
}

func wireOne(via, direct *apiClient, n *netlist, vals map[string][]float64) error {
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	if n.body == nil { // an .hgr input travels inline like any other
		var err error
		if n, err = bookshelf(n.h, n.label); err != nil {
			return err
		}
	}

	cold, err := via.submit(http.MethodPost, "/v1/jobs", n.body)
	if err == nil {
		err = verifyResult(n.h, cold.job.Result)
	}
	if err != nil {
		return fmt.Errorf("through the coordinator: %w", err)
	}
	held, err := direct.get(cold.job.BackendJob)
	if err != nil {
		return fmt.Errorf("node record: %w", err)
	}
	if held.Started == nil || held.Finished == nil {
		return fmt.Errorf("node record %s has no start or finish time", held.ID)
	}
	add("cluster.intake_p50_ms", ms(cold.posted))
	add("cluster.relay_p50_ms", ms(cold.latency-held.Finished.Sub(held.Submitted)))
	add("service.queue_wait_p50_ms", ms(held.Started.Sub(held.Submitted)))
	add("service.run_p50_ms", ms(held.Finished.Sub(*held.Started)))
	add("igpartd.polls_per_job", float64(cold.polls))

	hit, err := direct.submit(http.MethodPost, "/v1/jobs", n.body)
	if err == nil && !hit.job.Cached {
		err = errors.New("the resubmit missed the node's result cache")
	}
	if err == nil {
		err = sameResult(hit.job.Result, cold.job.Result)
	}
	if err != nil {
		return fmt.Errorf("straight to the node: %w", err)
	}
	add("igpartd.submit_p50_ms", ms(hit.posted))
	add("igpartd.hit_p50_ms", ms(hit.latency))

	start := time.Now()
	size, err := direct.call(http.MethodGet, "/v1/jobs/"+hit.job.ID, nil, http.StatusOK, &jobDoc{})
	if err != nil {
		return err
	}
	add("igpartd.get_p50_ms", ms(time.Since(start)))
	add("igpartd.result_kb", float64(size)/1024)
	return nil
}
