package mapper

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestLabelSize pins the label at no more than 48 bytes, with no field
// that can hold a pointer: the label array is one label per node (two
// under SecondBest) in every machine, one machine per resident vantage
// and per what-if question, and Machine.Clone copies it for every cold
// question. A field added to a label must fit the padding the existing
// ones leave, and a pointer in it would make every copy pay write
// barriers and every collection scan the array.
func TestLabelSize(t *testing.T) {
	const maxLabelBytes = 48
	if got := unsafe.Sizeof(label{}); got > maxLabelBytes {
		t.Errorf("label is %d bytes, want at most %d", got, maxLabelBytes)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s, which can hold a pointer", path, typ)
		}
	}
	walk("label", reflect.TypeOf(label{}))
}
