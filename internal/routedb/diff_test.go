package routedb

// Route-database diffs: cmd/routediff loads two databases and compares
// their entries with whatif/diff, which requires host order — the order
// DB.Entries yields. These tests pin that pairing.

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"pathalias/internal/printer"
	"pathalias/internal/whatif/diff"
)

// diffDBs reports the changes from old to new, ordered by host name.
func diffDBs(old, new *DB) []diff.Change { return diff.Diff(old.Entries(), new.Entries()) }

func db(t *testing.T, lines string) *DB {
	t.Helper()
	d, err := Load(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiffEmpty(t *testing.T) {
	a := db(t, "100\tduke\tduke!%s\n")
	if changes := diffDBs(a, a); len(changes) != 0 {
		t.Errorf("self-diff = %v", changes)
	}
}

func TestDiffKinds(t *testing.T) {
	old := db(t, `100	duke	duke!%s
200	gone	gone!%s
300	moved	a!moved!%s
400	pricier	p!%s
`)
	new := db(t, `100	duke	duke!%s
300	moved	b!moved!%s
500	pricier	p!%s
50	fresh	fresh!%s
`)
	changes := diffDBs(old, new)
	want := map[string]diff.ChangeKind{
		"fresh":   diff.Added,
		"gone":    diff.Removed,
		"moved":   diff.Rerouted,
		"pricier": diff.Recosted,
	}
	if len(changes) != len(want) {
		t.Fatalf("changes = %v", changes)
	}
	for _, c := range changes {
		if want[c.Host] != c.Kind {
			t.Errorf("%s: kind %v want %v", c.Host, c.Kind, want[c.Host])
		}
	}
	st := diff.Summarize(changes)
	if st.Added != 1 || st.Removed != 1 || st.Rerouted != 1 || st.Recosted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiffOrdering(t *testing.T) {
	old := db(t, "1\tzed\tz!%s\n1\talpha\ta!%s\n")
	new := db(t, "1\tmid\tm!%s\n")
	changes := diffDBs(old, new)
	var hosts []string
	for _, c := range changes {
		hosts = append(hosts, c.Host)
	}
	if strings.Join(hosts, " ") != "alpha mid zed" {
		t.Errorf("order = %v", hosts)
	}
}

func TestWriteChanges(t *testing.T) {
	old := db(t, "100\tduke\tduke!%s\n")
	new := db(t, "100\tduke\tphs!duke!%s\n1\tnewbie\tn!%s\n")
	var sb strings.Builder
	if err := diff.WriteChanges(&sb, diffDBs(old, new)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "rerouted\tduke\tduke!%s (100) -> phs!duke!%s (100)") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "added\tnewbie\tn!%s (1)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestChangeKindString(t *testing.T) {
	kinds := map[diff.ChangeKind]string{diff.Added: "added", diff.Removed: "removed",
		diff.Rerouted: "rerouted", diff.Recosted: "recosted"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// Property: Diff against an empty DB lists everything as added (or
// removed, in the other direction), and diff is size-consistent.
func TestDiffProperties(t *testing.T) {
	empty := BuildWith(nil, Options{})
	f := func(keys []uint8) bool {
		var es []printer.Entry
		for _, k := range keys {
			es = append(es, printer.Entry{
				Host:  fmt.Sprintf("h%d", k),
				Route: "r!%s",
				Cost:  10,
			})
		}
		d := BuildWith(es, Options{})
		adds := diffDBs(empty, d)
		rems := diffDBs(d, empty)
		if len(adds) != d.Len() || len(rems) != d.Len() {
			return false
		}
		for i := range adds {
			if adds[i].Kind != diff.Added || rems[i].Kind != diff.Removed {
				return false
			}
		}
		return len(diffDBs(d, d)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
