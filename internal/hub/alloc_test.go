package hub

import (
	"testing"

	"repro/internal/fiber"
	"repro/internal/sim"
)

// drainSink is a downstream device that drains each packet like a CAB: it
// restores the feeding output register's ready bit, through a callback
// bound once, and retains nothing.
type drainSink struct {
	eng   *sim.Engine
	ready func()
	n     int
}

func (s *drainSink) Receive(it *fiber.Item) {
	s.n++
	s.eng.After(100, s.ready)
}
func (s *drainSink) EndpointName() string { return "sink" }

// One cut-through hop: a packet arrives on an input with an established
// connection and leaves through the output register, arming and retiring
// the credit watchdog on the way.
func TestCutThroughHopZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "a")
	sink := &drainSink{eng: eng, ready: h.Port(1).SetReady}
	h.ConnectOutput(1, fiber.NewLink(eng, "h->sink", sink))
	eng.At(0, func() { a.send(a.cmd(OpOpenRetry, 0, 1)) })
	eng.Run()
	// The unicast hop moves the item on, so one item can be reused once
	// it has been delivered.
	it := packet(256)
	hop := func() {
		it.Hops = 0
		a.out.Send(it, eng.Now())
		eng.Run()
	}
	for i := 0; i < 200; i++ {
		hop()
	}
	if n := testing.AllocsPerRun(1000, hop); n != 0 {
		t.Errorf("cut-through hop allocates %.0f per packet, want 0", n)
	}
	if sink.n != 1201 || it.Hops != 1 {
		t.Fatalf("delivered %d packets, last hop count %d", sink.n, it.Hops)
	}
}

// Fan-out keeps one copy per branch: the copies must not alias each other
// or the arriving item.
func TestMulticastHopClonesPerBranch(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "a")
	b := attachCAB(eng, h, 1, "b")
	c := attachCAB(eng, h, 2, "c")
	it := packet(64)
	eng.At(0, func() {
		a.send(a.cmd(OpOpenRetry, 0, 1), a.cmd(OpOpenRetry, 0, 2), it)
	})
	eng.Run()
	if len(b.packets) != 1 || len(c.packets) != 1 {
		t.Fatalf("b got %d, c got %d packets", len(b.packets), len(c.packets))
	}
	if b.packets[0] == c.packets[0] || b.packets[0] == it || c.packets[0] == it {
		t.Fatal("multicast branches share an item")
	}
	if b.packets[0].Hops != 1 || c.packets[0].Hops != 1 || it.Hops != 0 {
		t.Fatalf("hops b=%d c=%d original=%d", b.packets[0].Hops, c.packets[0].Hops, it.Hops)
	}
}
