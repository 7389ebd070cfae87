package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The poll schedule of a client waiting for a job: every fastPoll for
// the first fastWindow after submission, then every slowPoll. A result
// is seen at most one interval after it exists; that interval is
// recorded per request as the quantisation bound.
const (
	fastPoll   = 2 * time.Millisecond
	fastWindow = 100 * time.Millisecond
	slowPoll   = 10 * time.Millisecond
)

// apiClient is one closed-loop client: one keep-alive connection to one
// daemon.
type apiClient struct {
	base string
	http *http.Client
}

func newAPIClient(base string) *apiClient {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &apiClient{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *apiClient) close() { c.http.CloseIdleConnections() }

// jobDoc is the wire form of a job record, single-node and coordinator
// fields together.
type jobDoc struct {
	ID         string     `json:"id"`
	State      string     `json:"state"`
	Cached     bool       `json:"cached"`
	Error      string     `json:"error"`
	Submitted  time.Time  `json:"submitted"`
	Started    *time.Time `json:"started"`
	Finished   *time.Time `json:"finished"`
	Backend    string     `json:"backend"`
	BackendJob string     `json:"backend_job"`
	Attempts   int        `json:"attempts"`
	Result     *resultDoc `json:"result"`
}

// resultDoc is the subset of a job result the verifier reads.
type resultDoc struct {
	CutNets     int     `json:"cut_nets"`
	SizeU       int     `json:"size_u"`
	SizeW       int     `json:"size_w"`
	RatioCut    float64 `json:"ratio_cut"`
	Warm        bool    `json:"warm"`
	TouchedNets int     `json:"touched_nets"`
	Sides       []int   `json:"sides"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// outcome is one request as the client saw it.
type outcome struct {
	job     jobDoc
	latency time.Duration // request sent → terminal record received
	posted  time.Duration // round trip of the job-creating request alone
	polls   int           // GETs until the record was terminal
	quantum time.Duration // poll interval before the terminal GET
}

// call sends one request and decodes the JSON reply into v; any status
// other than want is an error carrying the body. It returns the size of
// the reply body in bytes.
func (c *apiClient) call(method, path string, body []byte, want int, v any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return 0, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return len(data), json.Unmarshal(data, v)
}

// submit sends a job-creating request (POST /v1/jobs, or PATCH
// /v1/jobs/{id} for an ECO delta) and polls the new job until it is
// terminal.
func (c *apiClient) submit(method, path string, body []byte) (outcome, error) {
	start := time.Now()
	var o outcome
	if _, err := c.call(method, path, body, http.StatusAccepted, &o.job); err != nil {
		return o, err
	}
	o.posted = time.Since(start)
	for !terminal(o.job.State) {
		o.quantum = fastPoll
		if time.Since(start) >= fastWindow {
			o.quantum = slowPoll
		}
		time.Sleep(o.quantum)
		o.polls++
		if _, err := c.call(http.MethodGet, "/v1/jobs/"+o.job.ID, nil, http.StatusOK, &o.job); err != nil {
			return o, err
		}
	}
	o.latency = time.Since(start)
	if o.job.State != "done" {
		return o, fmt.Errorf("job %s ended %s: %s", o.job.ID, o.job.State, o.job.Error)
	}
	if o.job.Result == nil {
		return o, fmt.Errorf("job %s is done without a result", o.job.ID)
	}
	return o, nil
}

// get fetches one job record.
func (c *apiClient) get(id string) (jobDoc, error) {
	var j jobDoc
	_, err := c.call(http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &j)
	return j, err
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // draining lets the connection be reused
	resp.Body.Close()
}

// submitBody is the POST /v1/jobs payload the workloads send.
type submitBody struct {
	Bookshelf struct {
		Nodes string `json:"nodes"`
		Nets  string `json:"nets"`
	} `json:"bookshelf"`
	Algo string `json:"algo"`
}
