package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathalias/internal/parser"
	"pathalias/internal/printer"
)

func inputs(srcs ...string) []parser.Input {
	var ins []parser.Input
	for i, s := range srcs {
		ins = append(ins, parser.Input{Name: "f" + string(rune('1'+i)), Src: s})
	}
	return ins
}

func TestRunPipeline(t *testing.T) {
	rep, err := Run(Config{LocalHost: "a"}, inputs("a b(10)\nb c(20)\n")...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 3 {
		t.Fatalf("entries = %v", rep.Entries)
	}
	if rep.Times.Parse <= 0 || rep.Times.Map <= 0 {
		t.Error("phase times not recorded")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{LocalHost: "a"}); err == nil {
		t.Error("no inputs accepted")
	}
	if _, err := Run(Config{}, inputs("a b\n")...); err == nil {
		t.Error("no local host accepted")
	}
	if _, err := Run(Config{LocalHost: "zz"}, inputs("a b\n")...); err == nil {
		t.Error("unknown local host accepted")
	}
}

func TestRunParseErrorKeepsReport(t *testing.T) {
	rep, err := Run(Config{LocalHost: "a"}, inputs("a @@\n")...)
	if err == nil {
		t.Fatal("want parse error")
	}
	if rep == nil || rep.Graph == nil {
		t.Error("report/graph lost on parse error")
	}
}

func TestAvoid(t *testing.T) {
	rep, err := Run(Config{
		LocalHost: "a",
		Avoid:     []string{"b", "nonexistent"},
	}, inputs("a b(10), c(10)\nb d(10)\nc d(10)\n")...)
	if err != nil {
		t.Fatal(err)
	}
	var route string
	for _, e := range rep.Entries {
		if e.Host == "d" {
			route = e.Route
		}
	}
	if route != "c!d!%s" {
		t.Errorf("route to d = %q, want via c", route)
	}
	found := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "nonexistent") {
			found = true
		}
	}
	if !found {
		t.Errorf("no warning for unknown avoid host: %v", rep.Warnings)
	}
}

func TestPrinterOptionsPassThrough(t *testing.T) {
	rep, err := Run(Config{
		LocalHost: "a",
		Printer:   printer.Options{DomainsOnly: true},
	}, inputs("a b(10)\na .edu(95)\n.edu = {.sub}\n")...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 || rep.Entries[0].Host != ".edu" {
		t.Errorf("DomainsOnly entries = %v", rep.Entries)
	}
}

func TestReadInputs(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "m1.map")
	p2 := filepath.Join(dir, "m2.map")
	if err := os.WriteFile(p1, []byte("a b(10)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, []byte("b c(10)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ins, err := ReadInputs([]string{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 || ins[0].Name != p1 || string(ins[1].Src) != "b c(10)\n" {
		t.Errorf("inputs = %+v", ins)
	}
	if _, err := ReadInputs([]string{filepath.Join(dir, "missing.map")}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWriteReportStats(t *testing.T) {
	rep, err := Run(Config{LocalHost: "a"}, inputs("a b(10)\n")...)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteReportStats(&sb, rep)
	out := sb.String()
	for _, want := range []string{"nodes", "hash table", "mapped", "parse"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	// Nil-safety.
	WriteReportStats(&sb, nil)
	WriteReportStats(&sb, &Report{})
}
