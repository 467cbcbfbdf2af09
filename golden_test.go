package pathalias

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden route files: the complete route table of testdata/paper1981.map
// from two vantages, checked in under testdata/golden/. They pin the
// output bytes — route strings, costs, order — so an innocent-looking
// change to tie-breaking, splicing, or sorting shows up as a diff in
// review instead of silently re-routing mail.
//
// To regenerate after an intentional output change:
//
//	go test -run TestGoldenVantageRoutes -update-golden .
//
// and commit the rewritten files (see DESIGN.md "Multi-source mapping").
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden route files")

const goldenMap = "testdata/paper1981.map"

var goldenVantages = []string{"unc", "duke"}

func goldenPath(host string) string {
	return filepath.Join("testdata", "golden", "paper1981."+host+".routes")
}

func renderRoutes(t *testing.T, res *Result) string {
	t.Helper()
	var sb strings.Builder
	if err := res.WriteRoutes(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestGoldenVantageRoutes(t *testing.T) {
	// One shared MultiEngine serves both vantages; each must match both
	// the golden bytes and a fresh single-source Run.
	multi, err := NewMultiEngine(Options{PrintCosts: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(goldenMap)
	if err != nil {
		t.Fatal(err)
	}
	if err := multi.Update(Input{Name: goldenMap, Text: string(data)}); err != nil {
		t.Fatal(err)
	}

	for _, host := range goldenVantages {
		opts := Options{LocalHost: host, PrintCosts: true}
		res, err := Run(opts, Input{Name: goldenMap, Text: string(data)})
		if err != nil {
			t.Fatalf("%s: %v", host, err)
		}
		got := renderRoutes(t, res)

		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(goldenPath(host)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath(host), []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", goldenPath(host), len(got))
			continue
		}

		want, err := os.ReadFile(goldenPath(host))
		if err != nil {
			t.Fatalf("%s (regenerate with -update-golden): %v", host, err)
		}
		if got != string(want) {
			t.Errorf("vantage %s diverges from %s\ngot:\n%s\nwant:\n%s",
				host, goldenPath(host), got, want)
		}

		mres, err := multi.ResultFrom(host)
		if err != nil {
			t.Fatalf("multi %s: %v", host, err)
		}
		if mgot := renderRoutes(t, mres); mgot != string(want) {
			t.Errorf("MultiEngine vantage %s diverges from golden\ngot:\n%s\nwant:\n%s",
				host, mgot, want)
		}
	}
}
