package mapreduce

import (
	"testing"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/wire"
)

// TestVerifyAgainstReferenceRejects drives the end-to-end oracle with a
// correct output and with each way a reducer output can be wrong. The
// spills give reducer 1 the reference {a: 4, b: 3, c: 4} from two
// mappers; reducer 0 gets unrelated records that must not leak in.
func TestVerifyAgainstReferenceRejects(t *testing.T) {
	sum, err := core.FuncByID(core.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	spills := make([][]*spill, 2)
	for m := range spills {
		spills[m] = []*spill{newSpill(wire.DefaultGeometry, 0), newSpill(wire.DefaultGeometry, 0)}
	}
	add := func(m, r int, key string, v uint32) {
		if err := spills[m][r].add(key, v); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 1, "a", 1)
	add(0, 1, "b", 2)
	add(0, 1, "a", 3)
	add(1, 1, "c", 4)
	add(1, 1, "b", 1)
	add(0, 0, "z", 9)
	add(1, 0, "d", 7)

	kv := func(k string, v uint32) core.KV { return core.KV{Key: k, Value: v} }
	cases := []struct {
		name string
		got  []core.KV
		ok   bool
	}{
		{"correct", []core.KV{kv("a", 4), kv("b", 3), kv("c", 4)}, true},
		{"missing key", []core.KV{kv("a", 4), kv("c", 4)}, false},
		{"extra key", []core.KV{kv("a", 4), kv("b", 3), kv("c", 4), kv("d", 7)}, false},
		{"key swapped for another", []core.KV{kv("a", 4), kv("b", 3), kv("d", 4)}, false},
		{"key swapped for a zero-valued one", []core.KV{kv("a", 4), kv("b", 3), kv("d", 0)}, false},
		{"wrong value", []core.KV{kv("a", 4), kv("b", 5), kv("c", 4)}, false},
		{"unsorted", []core.KV{kv("b", 3), kv("a", 4), kv("c", 4)}, false},
		{"duplicated key", []core.KV{kv("a", 4), kv("b", 3), kv("b", 3), kv("c", 4)}, false},
		{"duplicate replaces a key", []core.KV{kv("a", 4), kv("a", 4), kv("c", 4)}, false},
		{"empty output", nil, false},
	}
	for _, tc := range cases {
		err := verifyAgainstReference(spills, 1, sum, tc.got)
		if tc.ok && err != nil {
			t.Errorf("%s: rejected a correct output: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.got)
		}
	}
	if err := verifyAgainstReference(spills, 0, sum, []core.KV{kv("d", 7), kv("z", 9)}); err != nil {
		t.Errorf("reducer 0: %v", err)
	}
}
