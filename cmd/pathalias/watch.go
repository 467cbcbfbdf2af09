package main

// Continuous regeneration (-watch): pathalias stays resident, keeps the
// incremental engine warm, and rewrites the output file whenever a map
// source changes — the batch-compiler equivalent of routed's -map mode,
// for deployments that still consume the classic linear route file.
//
// The engine (remap.Multi) takes the very core.Config a batch run
// would, and serves the one -l vantage; each regeneration writes through
// the batch's routeText and routeImage, so the files match a batch run
// byte for byte.
//
// It shares routed -map's two policies: -o and -o-db each publish
// through an atomicfile.Publisher keyed by RouteGen (every route and
// cost), so an edit that changes no route, or a restart, writes neither
// file; fswatch.Watch logs a broken or vanished source once.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathalias/internal/atomicfile"
	"pathalias/internal/core"
	"pathalias/internal/fswatch"
	"pathalias/internal/remap"
)

// watchConfig carries the -watch invocation's own parameters.
type watchConfig struct {
	interval time.Duration
	outPath  string
	outDB    string // compiled database to republish on route changes ("" = none)
	costs    bool   // -c: the route file lists costs, cheapest first
	logLevel slog.Level
}

// runWatch is the -watch entry point: initial generation, then the poll
// loop until interrupted.
func runWatch(paths []string, cfg core.Config, wc watchConfig, stderr io.Writer) int {
	if wc.outPath == "" {
		fmt.Fprintln(stderr, "pathalias: -watch requires -o file")
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "pathalias: -watch requires map files (stdin cannot be watched)")
		return 2
	}
	w, err := newWatcher(cfg, paths, wc, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "pathalias: %v\n", err)
		return 1
	}
	// Once resident, the watcher is a daemon: its progress and error
	// reporting go through structured logging (-log-level), while CLI
	// diagnostics — map warnings, unreachable hosts — keep the classic
	// "pathalias:" stderr format scripts grep for.
	w.log = slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: wc.logLevel}))
	if _, err := w.regenerate(); err != nil {
		fmt.Fprintf(stderr, "pathalias: %v\n", err)
		return 1
	}
	w.log.Info("watching", "files", len(paths), "interval", wc.interval, "out", wc.outPath)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w.loop(ctx, wc.interval)
	return 0
}

// watcher regenerates the route file (and the compiled database) from
// paths through one persistent engine.
type watcher struct {
	cfg    core.Config
	eng    *remap.Multi
	paths  []string
	costs  bool
	text   *atomicfile.Publisher
	db     *atomicfile.Publisher // Path "" without -o-db
	stderr io.Writer
	log    *slog.Logger
}

func newWatcher(cfg core.Config, paths []string, wc watchConfig, stderr io.Writer) (*watcher, error) {
	eng, err := remap.NewMulti(cfg)
	if err != nil {
		return nil, err
	}
	return &watcher{cfg: cfg, eng: eng, paths: paths, costs: wc.costs, stderr: stderr, log: slog.New(slog.NewTextHandler(stderr, nil)),
		text: &atomicfile.Publisher{Path: wc.outPath}, db: &atomicfile.Publisher{Path: wc.outDB}}, nil
}

// regenerate recomputes routes (incrementally when possible) and
// republishes the route file, and with -o-db the compiled database,
// when the result's route generation is not already on disk. It
// reports whether anything was written; identical inputs (byte for byte
// the sources the engine last scanned) write nothing, so it is cheap to
// call on suspicion.
func (w *watcher) regenerate() (bool, error) {
	ins, err := core.ReadInputs(w.paths)
	if err != nil {
		return false, err
	}
	before := w.eng.Stats()
	if err := w.eng.Update(ins); err != nil {
		return false, err
	}
	res, err := w.eng.ResultFor(w.cfg.LocalHost)
	if err != nil {
		return false, err
	}
	if w.eng.Stats().Unchanged > before.Unchanged && w.eng.Stats().Updates > 0 {
		return false, nil // identical inputs: keep the existing output
	}
	for _, warn := range res.Warnings {
		fmt.Fprintf(w.stderr, "pathalias: %s\n", warn)
	}
	wrote, err := w.text.Publish(res.RouteGen, routeText(w.costs, res.Entries))
	if err != nil {
		return false, err
	}
	if w.db.Path != "" {
		wroteDB, err := w.db.Publish(res.RouteGen, routeImage(w.cfg, res.Entries))
		if err != nil {
			return false, err
		}
		wrote = wrote || wroteDB
	}
	for _, name := range res.Unreachable {
		fmt.Fprintf(w.stderr, "pathalias: %s: no route\n", name)
	}
	return wrote, nil
}

// loop regenerates whenever fswatch.Watch reports a possible change,
// until ctx is done. A regeneration that wrote logs the statements the
// engine applied plus undid, the source bytes it re-scanned, and the
// snapshot rows it rebuilt rather than copied.
func (w *watcher) loop(ctx context.Context, interval time.Duration) {
	fswatch.Watch(ctx, w.paths, interval, func() error {
		before := w.eng.Stats()
		wrote, err := w.regenerate()
		if st := w.eng.Stats(); wrote {
			w.log.Info("regenerated", "out", w.text.Path, "stmts_replayed", st.StmtsReplayed-before.StmtsReplayed,
				"bytes_rescanned", st.BytesRescanned-before.BytesRescanned, "rows_rebuilt", st.RowsRebuilt-before.RowsRebuilt)
		}
		return err
	}, func(err error) {
		w.log.Warn("regenerate failed, keeping previous output", "err", err)
	})
}
