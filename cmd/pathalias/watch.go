package main

// Continuous regeneration (-watch): pathalias stays resident, keeps the
// incremental engine warm, and rewrites the output file whenever a map
// source changes — the batch-compiler equivalent of routed's -map mode,
// for deployments that still consume the classic linear route file.

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

// watcher regenerates outPath from paths through one persistent engine.
type watcher struct {
	eng     *pathalias.MultiEngine
	paths   []string
	outPath string
	outDB   string
	pubGen  uint64 // RouteGen of the last published compiled database
	pubOK   bool   // outDB has been published at least once
	// replayed is the last regeneration's stmts_replayed: statements
	// the engine applied plus undid to bring its graph to the sources.
	replayed int
	stderr   io.Writer
	log      *slog.Logger
}

func newWatcher(eng *pathalias.MultiEngine, paths []string, outPath, outDB string, stderr io.Writer) *watcher {
	return &watcher{eng: eng, paths: paths, outPath: outPath, outDB: outDB, stderr: stderr,
		log: slog.New(slog.NewTextHandler(stderr, nil))}
}

// regenerate recomputes routes (incrementally when possible) and
// rewrites the output file atomically and durably (see
// internal/atomicfile). With -o-db it also republishes the compiled
// database — but only when the result's route generation advanced, so
// edits that cannot change routes (comments, whitespace, a re-touched
// file) never emit a new image for downstream watchers to reload. It
// reports whether anything was written; identical inputs (the engine's
// content hashes match) write nothing, so it is cheap to call on
// suspicion.
func (w *watcher) regenerate() (bool, error) {
	before := w.eng.Stats()
	if err := w.eng.UpdateFiles(w.paths...); err != nil {
		return false, err
	}
	w.replayed = w.eng.Stats().StmtsReplayed - before.StmtsReplayed
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
	if err := atomicfile.Publish(w.outPath, res.WriteRoutes); err != nil {
		return false, err
	}
	if w.outDB != "" && (!w.pubOK || res.RouteGen != w.pubGen) {
		if err := atomicfile.Publish(w.outDB, res.WriteDB); err != nil {
			return false, err
		}
		w.pubGen, w.pubOK = res.RouteGen, true
	}
	for _, name := range res.Unreachable {
		fmt.Fprintf(w.stderr, "pathalias: %s: no route\n", name)
	}
	return true, nil
}

// loop regenerates whenever fswatch.Watch reports a possible change,
// until ctx is done. Transient errors (mid-edit syntax errors, vanished
// files) are logged; the last good output file stays in place.
func (w *watcher) loop(ctx context.Context, interval time.Duration) {
	fswatch.Watch(ctx, w.paths, interval, func() {
		if wrote, err := w.regenerate(); err != nil {
			w.log.Warn("regenerate failed, keeping previous output", "err", err)
		} else if wrote {
			w.log.Info("regenerated", "out", w.outPath, "stmts_replayed", w.replayed)
		}
	})
}
