package hw

import (
	"reflect"
	"testing"
)

// TestTraceEventLayout pins the event layout a decoded trace is made of: at
// most 24 bytes, and nothing the garbage collector has to scan. A field
// holding a pointer, slice, map, string, interface, channel or function —
// directly or inside an array or struct — would bring the scan of every
// trace's event table back.
func TestTraceEventLayout(t *testing.T) {
	typ := reflect.TypeOf(TraceEvent{})
	if size := typ.Size(); size > 24 {
		t.Errorf("TraceEvent is %d bytes, want at most 24", size)
	}
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("TraceEvent.%s is a %s; events must hold indices, not references", path, typ.Kind())
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		check(f.Name, f.Type)
	}
}
