package sim

import "testing"

func TestPoolRecyclesLastPutFirst(t *testing.T) {
	var p Pool[*int]
	if p.Get() != nil {
		t.Fatal("empty pool returned an object")
	}
	a, b := new(int), new(int)
	p.Put(a)
	p.Put(b)
	if p.Get() != b || p.Get() != a || p.Get() != nil {
		t.Fatal("pool did not hand back b, a, then nil")
	}
	p.Put(a)
	if n := testing.AllocsPerRun(1000, func() { p.Put(p.Get()) }); n != 0 {
		t.Errorf("warm Get+Put allocates %.0f, want 0", n)
	}
}
