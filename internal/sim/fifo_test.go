package sim

import "testing"

// drain pops everything, head first.
func drain(q *FIFO[int]) []int {
	var out []int
	for q.Len() > 0 {
		out = append(out, q.Pop())
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	// Interleave pushes and pops so the head walks around the ring while
	// it grows: order must hold throughout.
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5 && q.Len() > 0; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
}

func TestFIFOPushFrontAtRemoveAtClear(t *testing.T) {
	var q FIFO[int]
	for i := 1; i <= 5; i++ {
		q.Push(i)
	}
	q.Pop() // head now off index 0, so PushFront wraps
	q.PushFront(0)
	if q.Front() != 0 || q.At(1) != 2 || q.At(q.Len()-1) != 5 {
		t.Fatalf("front=%d at1=%d last=%d", q.Front(), q.At(1), q.At(q.Len()-1))
	}
	q.RemoveAt(2) // drops 3
	if got := drain(&q); !equalInts(got, []int{0, 2, 4, 5}) {
		t.Fatalf("after RemoveAt: %v", got)
	}
	for i := 0; i < 9; i++ {
		q.PushFront(i) // grows from the front
	}
	if got := drain(&q); !equalInts(got, []int{8, 7, 6, 5, 4, 3, 2, 1, 0}) {
		t.Fatalf("PushFront order: %v", got)
	}
	q.Push(1)
	q.Push(2)
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len after Clear = %d", q.Len())
	}
	q.Push(7)
	if got := drain(&q); !equalInts(got, []int{7}) {
		t.Fatalf("reuse after Clear: %v", got)
	}
}

func TestFIFOPopReleasesReference(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	q.Push(v)
	q.Pop()
	for _, x := range q.buf {
		if x != nil {
			t.Fatal("popped slot still references its item")
		}
	}
}

func TestFIFOEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(q *FIFO[int]){
		"Pop":      func(q *FIFO[int]) { q.Pop() },
		"Front":    func(q *FIFO[int]) { q.Front() },
		"At":       func(q *FIFO[int]) { q.At(0) },
		"RemoveAt": func(q *FIFO[int]) { q.RemoveAt(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty FIFO did not panic", name)
				}
			}()
			f(&FIFO[int]{})
		}()
	}
}

func TestFIFOSteadyStateZeroAlloc(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Pop()
	}); n != 0 {
		t.Fatalf("bounded FIFO allocates %.0f per push+pop, want 0", n)
	}
}
