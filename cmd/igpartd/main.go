// Command igpartd serves the igpart pipeline over HTTP: submit
// partitioning jobs, poll for results, cancel, and scrape metrics.
//
//	igpartd -addr 127.0.0.1:8080 -data ./benchmarks
//
// The daemon is bounded at every layer: a worker pool sized to the
// machine, a fixed-depth queue that rejects overflow with 429, a
// request body size cap, and per-job deadlines. SIGTERM/SIGINT starts
// a graceful drain — intake stops, queued and running jobs finish (up
// to -shutdown-grace), then the process exits.
//
// Cluster mode turns the process into a coordinator instead:
//
//	igpartd -coordinator -backends http://n1:8080,http://n2:8080 \
//	        -journal /var/lib/igpartd/journal.jsonl
//
// The coordinator keeps the same /v1/jobs API, adds POST /v1/batches
// with streamed per-job completions, routes every job to a backend by
// consistent hashing on the netlist's content address, fails work over
// when a backend dies, and journals accepted jobs durably so its own
// restart loses nothing.
//
// The control plane itself is made highly available by a warm standby
// sharing the journal path (-standby: tails the journal, takes over on
// lease expiry), and the fleet can change live via a watchable
// backends file (-backends-file; SIGHUP forces a reload).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"igpart"
	"igpart/internal/cluster"
	"igpart/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers       = flag.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
		queue         = flag.Int("queue", 64, "queued-job bound; submissions beyond it get 429")
		cacheEntries  = flag.Int("cache", 128, "result cache entries (negative disables)")
		maxBody       = flag.Int64("max-body", 32<<20, "request body size limit in bytes")
		dataDir       = flag.String("data", "", "directory for server-side netlist paths (empty disables \"path\" submissions)")
		jobTimeout    = flag.Duration("job-timeout", 0, "default per-job deadline (0 = none)")
		maxJobTimeout = flag.Duration("max-job-timeout", 0, "cap on per-request deadlines (0 = uncapped)")
		shutdownGrace = flag.Duration("shutdown-grace", 30*time.Second, "drain budget after SIGTERM before cancelling jobs")
		readTimeout   = flag.Duration("read-timeout", 30*time.Second, "per-request read timeout")
		writeTimeout  = flag.Duration("write-timeout", 30*time.Second, "per-request write timeout (0 = none; coordinator mode defaults to 0 so batch streams are not cut off)")
		inject        = flag.String("inject", "", "fault-injection spec, e.g. 'worker.panic:limit=1,eigen.noconverge:p=0.5' (empty = off)")
		injectSeed    = flag.Int64("inject-seed", 1, "seed for the deterministic fault-injection streams")

		// Cluster-mode flags. With -coordinator the engine flags above
		// (-workers, -queue, -cache, job timeouts) are unused:
		// the coordinator computes nothing itself. -inject stays live for
		// the coordinator-side chaos points (coord.crash,
		// journal.write-err).
		coordinator     = flag.Bool("coordinator", false, "run as a cluster coordinator over -backends instead of solving locally")
		backendsFlag    = flag.String("backends", "", "comma-separated backend URLs, each optionally name= prefixed (coordinator mode, static fleet)")
		backendsFile    = flag.String("backends-file", "", "watchable backends file: one backend spec per line (name=URL or URL, '#' comments); polled for changes, SIGHUP forces a reload (coordinator mode, dynamic fleet)")
		membershipPoll  = flag.Duration("membership-poll", 2*time.Second, "backends-file change poll cadence")
		minDwell        = flag.Duration("min-dwell", 5*time.Second, "flapping guard: a backend re-added within this window of its removal waits it out before rejoining the ring (negative disables)")
		journalPath     = flag.String("journal", "", "durable job journal path (JSONL, fsync'd; replayed on boot; empty disables)")
		standby         = flag.Bool("standby", false, "run as a warm-standby coordinator: tail the shared -journal, serve 503s, and take over when the leader's lease expires")
		leaseTTL        = flag.Duration("lease-ttl", cluster.DefaultLeaseTTL, "coordinator leadership lease horizon; the leader renews at a third of this, a standby takes over once it expires")
		clusterAttempts = flag.Int("cluster-attempts", 0, "max submissions per job across failover hops (0 = 2x backend count)")
		probeInterval   = flag.Duration("probe-interval", 500*time.Millisecond, "backend /readyz health probe cadence (negative disables)")
	)
	flag.Parse()

	reg := new(igpart.MetricsRegistry)
	inj, err := igpart.ParseFaultSpec(*inject, *injectSeed, reg)
	if err != nil {
		log.Fatalf("igpartd: -inject: %v", err)
	}
	if inj != nil {
		log.Printf("igpartd: FAULT INJECTION ARMED: %s", inj)
	}
	if *coordinator {
		// http.Server's WriteTimeout is absolute from request start, which
		// would kill a chunked /v1/batches stream mid-flight; unless the
		// operator explicitly asked for one, run the coordinator without.
		wtSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "write-timeout" {
				wtSet = true
			}
		})
		if !wtSet {
			*writeTimeout = 0
		}
		if (*backendsFlag == "") == (*backendsFile == "") {
			log.Fatalf("igpartd: coordinator mode needs exactly one of -backends or -backends-file")
		}
		if *standby && *journalPath == "" {
			log.Fatalf("igpartd: -standby requires -journal (the leadership lease lives there)")
		}
		var backends []cluster.Backend
		if *backendsFlag != "" {
			backends, err = cluster.ParseBackends(*backendsFlag)
			if err != nil {
				log.Fatalf("igpartd: -backends: %v", err)
			}
		}
		err = runCoordinator(coordOptions{
			addr:    *addr,
			dataDir: *dataDir,
			maxBody: *maxBody,
			grace:   *shutdownGrace,
			readTO:  *readTimeout,
			writeTO: *writeTimeout,
			cfg: cluster.Config{
				Backends:      backends,
				Attempts:      *clusterAttempts,
				ProbeInterval: *probeInterval,
				MinDwell:      *minDwell,
				Metrics:       reg,
				Fault:         inj,
			},
			journalPath:    *journalPath,
			standby:        *standby,
			leaseTTL:       *leaseTTL,
			backendsFile:   *backendsFile,
			membershipPoll: *membershipPoll,
			inj:            inj,
		})
		if err != nil {
			log.Fatalf("igpartd: %v", err)
		}
		return
	}
	if *backendsFlag != "" || *backendsFile != "" || *journalPath != "" || *standby {
		log.Fatalf("igpartd: -backends/-backends-file/-journal/-standby require -coordinator")
	}
	if err := run(*addr, *dataDir, *maxBody, *shutdownGrace, *readTimeout, *writeTimeout, service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxJobTimeout,
		Metrics:        reg,
		Fault:          inj,
	}); err != nil {
		log.Fatalf("igpartd: %v", err)
	}
}

func run(addr, dataDir string, maxBody int64, grace, readTO, writeTO time.Duration, cfg service.Config) error {
	engine := service.New(cfg)
	handler := newServer(engine, serverConfig{dataDir: dataDir, maxBody: maxBody, inj: cfg.Fault})
	return serveHTTP(addr, readTO, writeTO, handler, engine.Shutdown, grace)
}

// newHTTPServer is the daemon's http.Server over handler. Shutdown
// first ends every pending job wait (see awaitJob), without cancelling
// any request's context, so a long poll answers at once instead of
// holding the drain.
func newHTTPServer(handler http.Handler, readTO, writeTO time.Duration) *http.Server {
	shutdown := make(chan struct{})
	srv := &http.Server{
		Handler:           handler,
		ReadTimeout:       readTO,
		WriteTimeout:      writeTO,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext: func(net.Listener) context.Context {
			return context.WithValue(context.Background(), shutdownKey{}, (<-chan struct{})(shutdown))
		},
	}
	srv.RegisterOnShutdown(sync.OnceFunc(func() { close(shutdown) }))
	return srv
}

// serveHTTP is the shared daemon skeleton for both modes: listen, log
// the bound address (the smoke scripts and tests parse this line),
// serve until SIGTERM/SIGINT, then drain — first HTTP (so no new
// submission can race past the engine close), then the engine or
// coordinator behind it, both bounded by grace.
func serveHTTP(addr string, readTO, writeTO time.Duration, handler http.Handler, drain func(context.Context) error, grace time.Duration) error {
	// Listen before building anything else so "port in use" fails fast,
	// and so -addr :0 can report the chosen port.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(handler, readTO, writeTO)
	log.Printf("igpartd: listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	log.Printf("igpartd: shutting down, draining for up to %v", grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("igpartd: http shutdown: %v", err)
	}
	if err := drain(shutdownCtx); err != nil {
		log.Printf("igpartd: drain incomplete: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	log.Printf("igpartd: shutdown complete")
	return nil
}
