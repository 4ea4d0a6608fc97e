package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

// runServe implements the `arrayflow serve` subcommand: a long-lived
// HTTP/JSON analysis daemon over the shared interner, memo cache, and
// pooled solver arenas (internal/service; wire reference in
// docs/API.md, runbook in docs/OPERATIONS.md).
//
// Exit status: 0 after a graceful drain (SIGTERM/SIGINT received, listener
// closed, in-flight requests completed), 1 when the listener cannot be
// opened or the server fails, 2 on usage errors.
func runServe(args []string) {
	fs := flag.NewFlagSet("arrayflow serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent analysis requests (0 = GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 256, "requests allowed to wait for a worker before 429 (negative = no waiting)")
	deadline := fs.Duration("deadline", 10*time.Second, "per-request deadline, queueing included")
	maxBody := fs.Int64("max-body", 1<<20, "request body cap in bytes (larger bodies get 413)")
	nocache := fs.Bool("nocache", false, "disable the memoizing solve cache")
	cacheDir := fs.String("cache-dir", "", "persistent solve cache directory: a restarted daemon warm-starts from it at memo-hit speed (empty = memory-only)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	fuel := fs.Int64("fuel", 0, "per-solve fuel budget in flow-application units (0 = derived default; exhausted solves degrade to claim-nothing facts instead of blowing the deadline)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: arrayflow serve [-addr host:port] [-workers n] [-max-queue n] [-deadline d] [-max-body n] [-nocache] [-cache-dir dir] [-drain-timeout d] [-fuel n]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}

	srv := service.New(&service.Options{
		Workers:      *workers,
		MaxQueue:     *maxQueue,
		Deadline:     *deadline,
		MaxBody:      *maxBody,
		DisableCache: *nocache,
		CacheDir:     *cacheDir,
		Fuel:         *fuel,
	})
	hs := &http.Server{Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrayflow serve:", err)
		os.Exit(1)
	}
	// The resolved address goes to stderr so scripts using :0 can scrape
	// the port without parsing stdout.
	fmt.Fprintf(os.Stderr, "arrayflow serve: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "arrayflow serve: %s received, draining\n", got)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "arrayflow serve:", err)
		os.Exit(1)
	}

	// Graceful drain: refuse new work on still-open keep-alive connections
	// (503 + Connection: close), stop the listener, and wait for in-flight
	// requests up to the drain timeout.
	srv.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "arrayflow serve: drain:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "arrayflow serve: drained, exiting")
}
