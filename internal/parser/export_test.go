package parser

// Test hooks for the external parser_test package, whose tests need
// mapgen (which imports parser).

// FragmentInternals returns f's scanned form — statements with their
// offsets, members, errors, warnings and pending items — for
// field-by-field comparison with reflect.DeepEqual.
func FragmentInternals(f *Fragment) any { return f.frag }

// FragmentStrings returns the names f holds (statement operands, network
// members, pending hosts) and its other strings (warning and error
// texts, pending positions and scopes).
func FragmentStrings(f *Fragment) (names, other []string) {
	fr := f.frag
	for i := range fr.stmts {
		var op ReplayOp
		fr.spell(&fr.stmts[i], &op)
		names = append(names, op.A, op.B)
		names = append(names, op.Members...)
	}
	for _, p := range fr.pending {
		names = append(names, p.from, p.to)
		other = append(other, p.pos, p.file)
	}
	for _, n := range fr.warnings {
		other = append(other, n.text)
	}
	for _, n := range fr.errors {
		other = append(other, n.text)
	}
	return names, other
}
