package transport_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/transport"
)

// streamWire encodes one stream data packet from CAB 0 box 9 to CAB 1
// box 1.
func streamWire(msg, seq uint32, total int, data []byte) []byte {
	return transport.Encode(&transport.Header{
		Proto: transport.ProtoStream, Src: 0, Dst: 1, SrcBox: 9, DstBox: 1,
		MsgID: msg, Seq: seq, Total: uint32(total), Offset: seq * transport.MaxData,
	}, data)
}

// A head packet whose unchecked Total claims 4 GiB must not make the
// receiver reserve 4 GiB: the reassembly presize is capped at what the
// destination mailbox can hold. The protocol treats the packet as before:
// it is accepted and acknowledged.
func TestStreamHostileTotalPresizeBounded(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	rx := sys.CAB(1)
	rx.TP.Register(1, rx.Kernel.NewMailbox("in", 256<<10))
	head := streamWire(0, 0, 0xFFFFFFFF, payload(transport.MaxData))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rx.TP.HandlePacket(head)
	sys.Eng.RunUntil(sys.Eng.Now() + sim.Millisecond)
	runtime.ReadMemStats(&after)

	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("hostile head packet allocated %d bytes, want < 1 MiB", d)
	}
	if st := rx.TP.Stats(); st.AcksSent != 1 || st.ChecksumDrops != 0 || st.StreamMsgsRecv != 0 {
		t.Fatalf("acks=%d checksum drops=%d messages=%d, want the head acknowledged and nothing delivered",
			st.AcksSent, st.ChecksumDrops, st.StreamMsgsRecv)
	}
}

// Reassembling an in-order packet adds no allocation: it costs exactly
// what a stale retransmission, which is only acknowledged, costs. What
// both pay for is the acknowledgment (its wire buffer and frame), whose
// buffer ends on the other CAB and is not pooled.
func TestStreamReassemblyAddsNoAllocs(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	rx := sys.CAB(1)
	rx.TP.Register(1, rx.Kernel.NewMailbox("in", 1<<20))
	const pkts = 1000 // more than the test feeds: the message never completes
	total := pkts * transport.MaxData
	data := payload(transport.MaxData)
	wires := make([][]byte, pkts)
	for i := range wires {
		wires[i] = streamWire(5, uint32(i), total, data)
	}
	stale := streamWire(4, 0, total, data) // older than the message in progress

	feed := func(w []byte) {
		rx.TP.HandlePacket(w)
		sys.Eng.RunUntil(sys.Eng.Now() + 200*sim.Microsecond)
	}
	next := 0
	inOrder := func() {
		feed(wires[next])
		next++
	}
	for i := 0; i < 100; i++ {
		inOrder()
		feed(stale)
	}
	reassembled := testing.AllocsPerRun(200, inOrder)
	acked := testing.AllocsPerRun(200, func() { feed(stale) })
	t.Logf("allocs per packet: in-order %.0f, stale (acknowledgment only) %.0f", reassembled, acked)
	if reassembled != acked {
		t.Errorf("in-order packet allocates %.0f, a bare acknowledgment %.0f: reassembly allocates", reassembled, acked)
	}
	// AllocsPerRun truncates, which would hide a buffer that regrows now
	// and then; the bytes show it.
	bytesPer := func(f func()) float64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < 200; i++ {
			f()
		}
		runtime.ReadMemStats(&b)
		return float64(b.TotalAlloc-a.TotalAlloc) / 200
	}
	inB, staleB := bytesPer(inOrder), bytesPer(func() { feed(stale) })
	t.Logf("bytes per packet: in-order %.0f, stale %.0f", inB, staleB)
	if inB > staleB+16 {
		t.Errorf("in-order packet allocates %.0f B, a bare acknowledgment %.0f B: the reassembly buffer regrows", inB, staleB)
	}
	if st := rx.TP.Stats(); st.ChecksumDrops != 0 || st.AcksSent != int64(2*next) {
		t.Fatalf("checksum drops %d, acks %d after %d in-order packets", st.ChecksumDrops, st.AcksSent, next)
	}
}

// BenchmarkStreamHop streams 64 KiB messages between two CABs on one HUB
// and reports the host cost per data packet: every packet crosses the
// sender's CPU and datalink, a fiber, the HUB, a fiber, the receiver's
// DMA, reassembly, and an acknowledgment back. Run with -benchmem.
func BenchmarkStreamHop(b *testing.B) {
	sys := core.New(core.SingleHub(2))
	tx, rx := sys.CAB(0), sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 256<<10)
	rx.TP.Register(1, mb)
	msg := payload(64 << 10)
	got := 0
	rx.Kernel.SpawnDaemon("drain", func(th *kernel.Thread) {
		for {
			mb.Release(mb.Get(th))
			got++
		}
	})
	tx.Kernel.SpawnDaemon("stream", func(th *kernel.Thread) {
		for {
			if err := tx.TP.StreamSend(th, 1, 1, 9, msg); err != nil {
				b.Error(err)
				return
			}
		}
	})
	runTo := func(n int) {
		for got < n {
			sys.Eng.RunUntil(sys.Eng.Now() + 100*sim.Microsecond)
		}
	}
	runTo(2) // warm pools and queues
	pkts0 := tx.DL.Stats().PacketsSent
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	runTo(2 + b.N)
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	pkts := float64(tx.DL.Stats().PacketsSent - pkts0)
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/pkts, "allocs/packet")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/pkts, "B/packet")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "ns/packet")
}
