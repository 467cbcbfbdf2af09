package parser_test

// BenchmarkParseSingleFileParallel measures scan-width scaling within ONE
// input file — the realistic published-map shape, which the per-file
// parallel path cannot touch. The source is a mapgen 200k-host map
// concatenated into a single file; each sub-benchmark sets GOMAXPROCS to
// its j, and j>1 engages the statement-boundary splitter (split.go). On
// a single-vCPU machine the parallel path measures the splitter's
// overhead rather than any win. Numbers are recorded in BENCH_map.json.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pathalias/internal/mapgen"
	"pathalias/internal/parser"
)

func singleFileSource(tb testing.TB, hosts int) string {
	tb.Helper()
	pins, _ := mapgen.Generate(mapgen.Scaled(hosts, 18))
	var sb strings.Builder
	for _, in := range pins {
		sb.WriteString(in.Src)
		if !strings.HasSuffix(in.Src, "\n") {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func BenchmarkParseSingleFileParallel(b *testing.B) {
	src := singleFileSource(b, 200000)
	in := parser.Input{Name: "big.map", Src: src}
	for _, j := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("hosts200000/j%d", j), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(j))
			// Each iteration retires a ~180MB graph; collect it now so
			// the previous sub-benchmark's garbage isn't billed here.
			runtime.GC()
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parser.ParseWith(parser.Options{}, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
