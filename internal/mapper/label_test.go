package mapper

import (
	"testing"
	"unsafe"
)

// TestLabelSize pins the label at 72 bytes: the label array is two
// labels per node in every machine, one machine per resident vantage
// and per what-if question, so a field added to a label must fit the
// padding the existing ones leave.
func TestLabelSize(t *testing.T) {
	if got := unsafe.Sizeof(label{}); got != 72 {
		t.Errorf("label is %d bytes, want 72", got)
	}
}
