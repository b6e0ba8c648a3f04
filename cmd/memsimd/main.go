// memsimd serves simulations over HTTP: submit a configuration (or a
// batch), get back the paper's measurements — cached, journaled and
// crash-tolerant, so a million clients asking for the same point cost
// one simulation and a kill -9 costs at most a resumed job.
//
// Usage:
//
//	memsimd -state /var/lib/memsimd                 # durable service
//	memsimd -addr :8080 -preset quick -workers 4    # tuning
//	memsimd -queue 16 -retry-after 5s               # admission control
//
// API (JSON):
//
//	POST /api/v1/jobs               {"bench":"Gauss","model":"SC1","cacheSize":2048,"lineSize":16}
//	GET  /api/v1/jobs/{id}?wait=30s long-poll a job
//	POST /api/v1/jobs/{id}/preempt  checkpoint + requeue a running job
//	POST /api/v1/sweep              {"specs":[...]}
//	GET  /api/v1/stats              operational counters
//	GET  /healthz
//
// Submissions are content-addressed: identical configs share one job
// id, one simulation and one cached Result (verified by its SHA-256
// checksum on every read). With -state, the job queue is journaled to
// fsynced JSONL and machine checkpoints land next to it, so a crashed
// or killed server resumes in-flight jobs from their checkpoints on
// restart. Under overload the bounded queue sheds new work with 429 +
// Retry-After while cache hits keep being served.
//
// Shutdown is two-stage: the first SIGINT/SIGTERM drains (stop
// admitting, checkpoint in-flight jobs, journal, exit 0); a second
// signal aborts immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memsim/internal/experiments"
	"memsim/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7344", "listen address")
		preset     = flag.String("preset", "scaled", "parameter preset: quick, scaled, paper")
		stateDir   = flag.String("state", "", "journal + cache + checkpoint directory (empty: ephemeral)")
		workers    = flag.Int("workers", 2, "simulation worker goroutines")
		queueCap   = flag.Int("queue", 64, "admission-queue bound; submissions beyond it get 429")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint on shed submissions")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit per simulation attempt (0: none)")
		retries    = flag.Int("retries", 0, "retry attempts for timed-out or stalled runs")
		backoff    = flag.Duration("backoff", time.Second, "wait before the first retry (doubles per attempt)")
		ckptEvery  = flag.Uint64("ckpt-every", 2_000_000, "simulated cycles between machine checkpoints")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
	)
	flag.Parse()

	params, err := experiments.Preset(*preset)
	if err != nil {
		fatal(err)
	}

	cfg := server.Config{
		Params:     params,
		StateDir:   *stateDir,
		Workers:    *workers,
		QueueCap:   *queueCap,
		RetryAfter: *retryAfter,
		Timeout:    *timeout,
		Retries:    *retries,
		Backoff:    *backoff,
		CkptEvery:  *ckptEvery,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slow-client protection: a client that trickles its request
		// headers or never reads its response cannot pin a connection
		// forever. Handlers (long-poll included) stay bounded by their
		// own timeouts.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "memsimd: %v: draining (stop admitting, checkpoint in-flight; repeat to abort)\n", sig)
		go func() {
			<-sigs
			fmt.Fprintln(os.Stderr, "memsimd: aborted")
			os.Exit(130)
		}()
		srv.Drain()
		hs.Close()
		close(done)
	}()

	fmt.Fprintf(os.Stderr, "memsimd: serving preset %q on %s (state %q, %d workers, queue %d)\n",
		params.Name, *addr, *stateDir, *workers, *queueCap)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memsimd:", err)
	os.Exit(1)
}
