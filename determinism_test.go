package pathalias

// Regression tests for the parallel parser's determinism guarantee
// (DESIGN.md "Hot path"): the fragment-scan-and-ordered-merge pipeline
// must produce output byte-identical to a sequential parse, for any worker
// count and — because diagnostics and routes are ordered by content, not
// discovery — for any shuffling of the input file order. Run under -race
// in CI, these tests also police the scanners' goroutine isolation.

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
	"pathalias/internal/printer"
	"pathalias/internal/routedb"
)

// routesBytes runs the full pipeline (parse at the given GOMAXPROCS,
// map, print) and renders the classic route file.
func routesBytes(t *testing.T, workers int, local string, inputs []parser.Input) []byte {
	t.Helper()
	prev := runtime.GOMAXPROCS(workers)
	res, err := parser.ParseWith(parser.Options{}, inputs...)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatalf("parse (workers=%d): %v", workers, err)
	}
	src, ok := res.Graph.Lookup(local)
	if !ok {
		t.Fatalf("local host %q missing", local)
	}
	mres, err := mapper.Run(res.Graph, src, mapper.DefaultOptions())
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	var buf bytes.Buffer
	if _, err := routedb.WriteText(&buf, printer.Routes(mres, printer.Options{}), true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// detInputs is a multi-file map with every order-sensitive feature the
// parser handles: private name collisions, duplicate links across files,
// domains, networks with gateways, aliases, and dead/delete commands.
func detInputs(t *testing.T) ([]parser.Input, string) {
	t.Helper()
	inputs, local := mapgen.Generate(mapgen.Scaled(3000, 7))
	if len(inputs) < 4 {
		t.Fatalf("want a multi-file map, got %d files", len(inputs))
	}
	return inputs, local
}

func TestParallelParseMatchesSequential(t *testing.T) {
	inputs, local := detInputs(t)
	want := routesBytes(t, 1, local, inputs)
	for _, workers := range []int{2, 4, 9} {
		got := routesBytes(t, workers, local, inputs)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: output differs from sequential parse (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

func TestShuffledFileOrderIsByteIdentical(t *testing.T) {
	inputs, local := detInputs(t)
	want := routesBytes(t, 1, local, inputs)

	rng := rand.New(rand.NewSource(1986))
	for round := 0; round < 3; round++ {
		shuffled := append([]parser.Input(nil), inputs...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		// Parallel parse of the shuffled order must match the sequential
		// parse of the original order byte for byte: routes are ordered
		// by name and priority ties break on name rank, never on file
		// order or node creation order.
		got := routesBytes(t, 4, local, shuffled)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: shuffled parallel output differs from sequential (%d vs %d bytes)",
				round, len(got), len(want))
		}
		// And the serial parse of the shuffled order agrees too.
		gotSerial := routesBytes(t, 1, local, shuffled)
		if !bytes.Equal(gotSerial, want) {
			t.Fatalf("round %d: shuffled serial output differs from sequential", round)
		}
	}
}
