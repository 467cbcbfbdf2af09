package certify_test

import (
	"testing"
	"time"

	"pathalias/internal/certify"
	"pathalias/internal/mapgen"
	"pathalias/internal/mapper"
	"pathalias/internal/parser"
)

// TestBackLinksScaled certifies one full run over the 200k-host map
// and logs what the check costs beside the run.
func TestBackLinksScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("maps 200,000 hosts")
	}
	pins, local := mapgen.Generate(mapgen.Scaled(200000, 1))
	pres, err := parser.ParseWith(parser.Options{}, pins...)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := pres.Graph.Lookup(local)
	if !ok {
		t.Fatalf("no local host %q", local)
	}
	start := time.Now()
	res, err := mapper.Run(pres.Graph, src, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	run := time.Since(start)
	if res.BackLinked == 0 || len(res.Invented) == 0 {
		t.Fatalf("the run invented %d back links for %d hosts; the check would be vacuous",
			len(res.Invented), res.BackLinked)
	}
	start = time.Now()
	if err := certify.BackLinks(res.Machine, pres.Graph.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d hosts back-linked over %d invented links: run %v, certificate %v",
		res.BackLinked, len(res.Invented), run, time.Since(start))
}
