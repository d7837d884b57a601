// Command reseedd is the resident reseeding daemon: an HTTP JSON service
// over the reseeding Engine with warm artifact caches, an optional
// persistent on-disk store, asynchronous anytime jobs and admission
// control.
//
// Usage:
//
//	reseedd -addr :8351 -store /var/lib/reseedd
//	reseedd -addr 127.0.0.1:0 -j 4 -max-inflight 8 -queue 128
//
// Endpoints (see docs/API.md for schemas and curl examples):
//
//	GET    /healthz        liveness
//	POST   /v1/solve       synchronous solve of one Request
//	POST   /v1/batch       fan-out over several Requests
//	POST   /v1/jobs        start an asynchronous anytime job
//	GET    /v1/jobs/{id}   poll its best-so-far snapshot / final Response
//	DELETE /v1/jobs/{id}   cancel it (keeps the best cover found)
//	GET    /v1/stats       engine + server counters
//	GET    /metrics        Prometheus text exposition
//	GET    /v1/traces      solve-trace flight recorder (docs/OBSERVABILITY.md)
//
// With -store, ATPG preparations and Detection Matrices are persisted as
// content-addressed JSON under the given directory, and a restarted daemon
// serves its first request from disk instead of re-running ATPG. Replicas
// share artifacts by passing the same directory on a shared filesystem;
// the daemon serves no store records over HTTP.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, running
// jobs turn anytime (their exact solves finish with the best cover found
// so far), and the process exits when everything has wound down or after
// -drain-timeout, whichever comes first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	reseeding "repro"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr = flag.String("addr", ":8351", "listen address (host:port; port 0 picks a free port)")
		jobs = flag.Int("j", 0,
			"worker goroutines per solve phase (0 = all processors)")
		storeDir = flag.String("store", "",
			"directory for the persistent artifact store (empty = in-memory caches only)")
		maxFlows = flag.Int("max-flows", 0,
			"bound on in-memory cached ATPG preparations (0 = unbounded)")
		maxMatrices = flag.Int("max-matrices", 0,
			"bound on in-memory cached Detection Matrices (0 = unbounded)")
		maxInFlight = flag.Int("max-inflight", 0,
			"concurrent solves admitted across all endpoints (0 = 2 per processor)")
		queue = flag.Int("queue", 64,
			"synchronous requests allowed to wait for a slot before 429 (negative = none)")
		maxJobs = flag.Int("max-jobs", 256,
			"jobs retained for polling; a new job is refused with 429 while this many are unfinished")
		maxBatch     = flag.Int("max-batch", 64, "requests accepted per /v1/batch call")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second,
			"how long a SIGINT/SIGTERM drain may take before the process exits anyway")
		processName = flag.String("process-name", "reseedd",
			"process label stamped on trace spans (distinguishes replicas in stitched traces)")
		pprofAddr = flag.String("pprof", "",
			"serve net/http/pprof on this address (empty = profiling disabled)")
	)
	flag.Parse()
	log.SetPrefix("reseedd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	engOpts := reseeding.EngineOptions{
		Parallelism:       *jobs,
		MaxCachedFlows:    *maxFlows,
		MaxCachedMatrices: *maxMatrices,
	}
	cfg := server.Config{
		MaxInFlight: *maxInFlight,
		MaxQueue:    *queue,
		MaxJobs:     *maxJobs,
		MaxBatch:    *maxBatch,
		// The batch fan-out obeys the same -j bound as every other worker
		// pool, so -j 1 genuinely serializes the daemon.
		BatchParallelism: *jobs,
		ProcessName:      *processName,
	}
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
		go func() { log.Print(http.Serve(pln, obs.PprofHandler())) }()
	}
	if *storeDir != "" {
		st, err := reseeding.OpenStore(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		engOpts.Store = st
		cfg.Store = st
		flows, matrices, err := st.Len()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("artifact store %s: %d flows, %d matrices", *storeDir, flows, matrices)
	}
	srv := server.New(reseeding.NewEngine(engOpts), cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	log.Printf("listening on http://%s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("%s: draining (timeout %s)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Both shutdowns must run concurrently: srv.Shutdown cancels the solve
	// base context first thing, which is what lets an in-flight synchronous
	// solve turn anytime and let its HTTP exchange — which hs.Shutdown is
	// waiting on — finish with the best cover found instead of holding the
	// drain open.
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(ctx) }()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Print(err)
	}
	if err := <-drained; err != nil {
		fmt.Fprintln(os.Stderr, "reseedd: drain incomplete:", err)
		os.Exit(1)
	}
	log.Print("drained cleanly")
}
