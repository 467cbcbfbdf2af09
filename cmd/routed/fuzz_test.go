package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pathalias/internal/routedb"
)

// FuzzLineProtocol serves arbitrary input through serveConn on one of
// three daemons, picked by which%3: -d, -d under FoldCase (with a
// non-ASCII host), and -map over the paper's example map, whose what-if
// and from= forms run through the same dispatcher as every other
// surface. It checks, against an oracle built from the raw bytes alone:
// serveConn returns no error; exactly one reply line per request line —
// too-long lines and a final unterminated line included — up to and
// including a quit; every reply starts "ok " or "err "; every
// resolve-shaped line answers exactly as the default store's Resolve;
// and the byte field split agrees with strings.Fields. long%3 == 1
// prepends a too-long line, == 2 appends an unterminated one (fuzzed
// inputs alone never reach the 1 MiB cap).
func FuzzLineProtocol(f *testing.F) {
	dir := f.TempDir()
	var daemons []*daemon
	for i, fold := range []bool{false, true} {
		path := filepath.Join(dir, fmt.Sprintf("routes-%v.db", fold))
		if err := os.WriteFile(path, []byte([]string{testRoutes, foldRoutes}[i]), 0o644); err != nil {
			f.Fatal(err)
		}
		d, err := newDaemon(path, false, routedb.Options{FoldCase: fold}, io.Discard)
		if err != nil {
			f.Fatal(err)
		}
		daemons = append(daemons, d)
	}
	daemons = append(daemons, newTestMapDaemon(f))
	for _, g := range goldenReplies {
		which := map[string]uint8{"d": 0, "fold": 1, "map": 2}[g.daemon]
		f.Add([]byte(g.line+"\n"+g.line), which, uint8(0))
	}
	f.Add([]byte(strings.Join(pipelineQueries, "\r\n")), uint8(0), uint8(1))
	f.Add([]byte("duke honey\nunc bye\nstats\nquit\nduke\n"), uint8(1), uint8(2))
	f.Add([]byte("from=duke ucbvax honey\ntrace\nexplain research\nstats\nquit\n"), uint8(2), uint8(2))

	tooLong := bytes.Repeat([]byte("x"), maxLineLen+1)
	f.Fuzz(func(t *testing.T, in []byte, which, long uint8) {
		d := daemons[which%3]
		switch long % 3 {
		case 1:
			in = slices.Concat(tooLong, []byte("\n"), in)
		case 2:
			in = slices.Concat(in, []byte("\n"), tooLong)
		}
		var out bytes.Buffer
		if err := d.serveConn(bytes.NewReader(in), &out); err != nil {
			t.Fatalf("serveConn: %v", err)
		}

		// Request lines: newline-terminated, plus a final unterminated
		// one when the input does not end in a newline.
		reqs := bytes.SplitAfter(in, []byte("\n"))
		if n := len(reqs); len(reqs[n-1]) == 0 {
			reqs = reqs[:n-1]
		}
		want := len(reqs)
		for i, raw := range reqs {
			if closes(raw) {
				want = i + 1
				break
			}
		}
		replies := strings.SplitAfter(out.String(), "\n")
		if replies[len(replies)-1] != "" {
			t.Fatalf("reply stream does not end in a newline: %q", out.String())
		}
		replies = replies[:len(replies)-1]
		if len(replies) != want {
			t.Fatalf("%d replies to %d request lines (%d before a quit)", len(replies), len(reqs), want)
		}

		var st lineState
		for i, reply := range replies {
			reply = strings.TrimSuffix(reply, "\n")
			if !strings.HasPrefix(reply, "ok ") && !strings.HasPrefix(reply, "err ") {
				t.Fatalf("line %d: reply %q is neither ok nor err", i, reply)
			}
			raw := reqs[i]
			if len(raw) > maxLineLen {
				if reply != "err line too long" {
					t.Fatalf("line %d: too-long line answered %q", i, reply)
				}
				continue
			}
			line := trimEOL(raw)
			fields := strings.Fields(string(line))
			st.fields = appendFields(st.fields[:0], line)
			split := make([]string, len(st.fields))
			for j, fld := range st.fields {
				split[j] = string(fld)
			}
			if !slices.Equal(split, fields) {
				t.Fatalf("line %q: fields %q, strings.Fields %q", line, st.fields, fields)
			}
			if !resolveShaped(fields) {
				continue
			}
			user := "%s"
			if len(fields) == 2 {
				user = fields[1]
			}
			wantReply := ""
			if res, err := d.store.Resolve(fields[0], user); err != nil {
				wantReply = "err " + err.Error()
			} else {
				wantReply = "ok " + res.Address()
			}
			if reply != wantReply {
				t.Fatalf("line %q: reply %q, store.Resolve %q", line, reply, wantReply)
			}
		}
	})
}

// trimEOL drops a request line's "\n", then one "\r".
func trimEOL(raw []byte) []byte {
	return bytes.TrimSuffix(bytes.TrimSuffix(raw, []byte("\n")), []byte("\r"))
}

// closes reports whether a raw request line is quit: the single field
// "quit", optionally after an empty from=.
func closes(raw []byte) bool {
	fields := strings.Fields(string(trimEOL(raw)))
	if len(fields) > 0 && fields[0] == "from=" {
		fields = fields[1:]
	}
	return len(fields) == 1 && fields[0] == "quit"
}

// resolveShaped reports whether a request's fields are a plain resolve
// on the default store: dest and an optional user, no from=/overlay=,
// not a command.
func resolveShaped(fields []string) bool {
	if len(fields) == 0 || len(fields) > 2 {
		return false
	}
	switch f := fields[0]; {
	case strings.HasPrefix(f, "from="), strings.HasPrefix(f, "overlay="),
		f == "explain", f == "impact":
		return false
	case len(fields) == 1:
		return f != "stats" && f != "trace" && f != "quit"
	}
	return true
}
