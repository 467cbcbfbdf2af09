package main

// Continuous regeneration (-watch): pathalias stays resident, keeps the
// incremental engine warm, and rewrites the output file whenever a map
// source changes — the batch-compiler equivalent of routed's -map mode,
// for deployments that still consume the classic linear route file.
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
	"strings"
	"syscall"
	"time"

	"pathalias"
	"pathalias/internal/atomicfile"
	"pathalias/internal/fswatch"
)

// watchConfig carries the -watch invocation's parameters.
type watchConfig struct {
	interval time.Duration
	outPath  string
	outDB    string // compiled database to republish on route changes ("" = none)
	logLevel slog.Level
	opts     pathalias.Options
}

// avoidList splits the -s flag's comma-separated host list.
func avoidList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// runWatch is the -watch entry point: initial generation, then the poll
// loop until interrupted.
func runWatch(paths []string, cfg watchConfig, stderr io.Writer) int {
	if cfg.outPath == "" {
		fmt.Fprintln(stderr, "pathalias: -watch requires -o file")
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "pathalias: -watch requires map files (stdin cannot be watched)")
		return 2
	}
	eng, err := pathalias.NewMultiEngine(cfg.opts)
	if err != nil {
		fmt.Fprintf(stderr, "pathalias: %v\n", err)
		return 1
	}
	w := newWatcher(eng, paths, cfg.outPath, cfg.outDB, stderr)
	// Once resident, the watcher is a daemon: its progress and error
	// reporting go through structured logging (-log-level), while CLI
	// diagnostics — map warnings, unreachable hosts — keep the classic
	// "pathalias:" stderr format scripts grep for.
	w.log = slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: cfg.logLevel}))
	if _, err := w.regenerate(); err != nil {
		fmt.Fprintf(stderr, "pathalias: %v\n", err)
		return 1
	}
	w.log.Info("watching", "files", len(paths), "interval", cfg.interval, "out", cfg.outPath)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w.loop(ctx, cfg.interval)
	return 0
}

// watcher regenerates the route file (and the compiled database) from
// paths through one persistent engine.
type watcher struct {
	eng    *pathalias.MultiEngine
	paths  []string
	text   *atomicfile.Publisher
	db     *atomicfile.Publisher // Path "" without -o-db
	stderr io.Writer
	log    *slog.Logger
}

func newWatcher(eng *pathalias.MultiEngine, paths []string, outPath, outDB string, stderr io.Writer) *watcher {
	return &watcher{eng: eng, paths: paths, stderr: stderr, log: slog.New(slog.NewTextHandler(stderr, nil)),
		text: &atomicfile.Publisher{Path: outPath}, db: &atomicfile.Publisher{Path: outDB}}
}

// regenerate recomputes routes (incrementally when possible) and
// republishes the route file, and with -o-db the compiled database,
// when the result's route generation is not already on disk. It
// reports whether anything was written; identical inputs (byte for byte
// the sources the engine last scanned) write nothing, so it is cheap to
// call on suspicion.
func (w *watcher) regenerate() (bool, error) {
	before := w.eng.Stats()
	if err := w.eng.UpdateFiles(w.paths...); err != nil {
		return false, err
	}
	res, err := w.eng.Result()
	if err != nil {
		return false, err
	}
	if w.eng.Stats().Unchanged > before.Unchanged && w.eng.Stats().Updates > 0 {
		return false, nil // identical inputs: keep the existing output
	}
	for _, warn := range res.Warnings {
		fmt.Fprintf(w.stderr, "pathalias: %s\n", warn)
	}
	wrote, err := w.text.Publish(res.RouteGen, res.WriteRoutes)
	if err != nil {
		return false, err
	}
	if w.db.Path != "" {
		wroteDB, err := w.db.Publish(res.RouteGen, res.WriteDB)
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
