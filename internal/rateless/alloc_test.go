package rateless

import (
	"errors"
	"testing"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// step takes a's next local action, which must be of the given kind.
func step(tb testing.TB, a ioa.Automaton, kind string) ioa.Action {
	act, ok := a.NextLocal()
	if !ok || act.Kind() != kind {
		tb.Fatalf("%s: next local action %v (ok %v), want %s", a.Name(), act, ok, kind)
	}
	if err := a.Apply(act); err != nil {
		tb.Fatalf("%s: apply %v: %v", a.Name(), act, err)
	}
	return act
}

// recvOf boxes the receipt of a sent action, as the serving endpoint
// boxes each delivered frame once.
func recvOf(act ioa.Action) ioa.Action {
	s := act.(wire.Send)
	return wire.Recv{Dir: s.Dir, P: s.P, Payload: s.Payload}
}

// blockStream returns the boxed receipts a receiver of x gets over a
// channel that loses one systematic symbol of every block and acks
// each block before the next one starts: the block's other symbols,
// then repair symbols until they decode it.
func blockStream(tb testing.TB, o Options, x []wire.Bit) []ioa.Action {
	bld, err := NewBuilder(o)
	if err != nil {
		tb.Fatal(err)
	}
	n, bits := bld.p.Delta1(), bld.BlockBits()
	var out []ioa.Action
	for b := 0; b < len(x)/bits; b++ {
		src, err := bld.codec.EncodeSeq(x[b*bits : (b+1)*bits])
		if err != nil {
			tb.Fatal(err)
		}
		code := &Code{k: o.K, n: n, seed: BlockSeed(o.Seed, uint32(b))}
		ref := NewDecoder(code)
		for index := uint32(0); !ref.Done(); index++ {
			if index == uint32(b%n) {
				continue
			}
			cs := wire.CodedSymbol{Block: uint32(b), Index: index, Value: code.encode(src, index)}
			if _, err := ref.Add(index, cs.Value); err != nil {
				tb.Fatal(err)
			}
			out = append(out, wire.Recv{Dir: wire.TtoR, P: wire.CodedPacket(cs), Payload: string(wire.AppendCodedSymbol(nil, cs))})
		}
	}
	return out
}

// TestRatelessStepNoAlloc is the coded path's allocation guard. A send
// step allocates only its new symbol's boxed send, built once for both
// of Machine's Act calls: the payload is a substring of the
// transmitter's record arena, which allocates once per 64 records. Asking again in an
// unchanged state, and the ack, write and idle steps, allocate nothing;
// so do the encoder, the peeler on a degree-1 symbol and the receiver
// absorbing a lossy stream once its decoders and queue are warm.
func TestRatelessStepNoAlloc(t *testing.T) {
	o := testOptions(3)
	x := testInput(t, o, 400)

	t.Run("send", func(t *testing.T) {
		tx, _ := newPair(t, o, x)
		if n := testing.AllocsPerRun(200, func() { step(t, tx, wire.KindSend) }); n > 1 {
			t.Errorf("send step: %v allocs, want at most 1", n)
		}
		if n := testing.AllocsPerRun(200, func() { tx.NextLocal() }); n != 0 {
			t.Errorf("NextLocal in an unchanged state: %v allocs, want 0", n)
		}
	})

	t.Run("ack", func(t *testing.T) {
		tx, rx := newPair(t, o, x)
		// Decode block 0 and take its ack; the transmitter absorbs it.
		var stale ioa.Action
		for i := 0; i < testParams.Delta1(); i++ {
			stale = recvOf(step(t, tx, wire.KindSend))
			if err := rx.Apply(stale); err != nil {
				t.Fatal(err)
			}
		}
		for rx.wnext < len(rx.queue) {
			step(t, rx, wire.KindWrite)
		}
		ack := recvOf(step(t, rx, wire.KindSend))
		if n := testing.AllocsPerRun(200, func() {
			if err := tx.Apply(ack); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("transmitter absorbing an ack: %v allocs, want 0", n)
		}
		// A stale symbol of block 0 re-arms the same ack: the re-ack
		// reuses its box.
		if n := testing.AllocsPerRun(200, func() {
			if err := rx.Apply(stale); err != nil {
				t.Fatal(err)
			}
			step(t, rx, wire.KindSend)
		}); n != 0 {
			t.Errorf("re-ack step: %v allocs, want 0", n)
		}
	})

	t.Run("write+idle", func(t *testing.T) {
		_, rx := newPair(t, o, x)
		rx.queue = append(rx.queue, x...)
		if n := testing.AllocsPerRun(200, func() { step(t, rx, wire.KindWrite) }); n != 0 {
			t.Errorf("write step: %v allocs, want 0", n)
		}
		rx.wnext = len(rx.queue)
		if n := testing.AllocsPerRun(200, func() { step(t, rx, "idle_r") }); n != 0 {
			t.Errorf("idle step: %v allocs, want 0", n)
		}
	})

	t.Run("encode", func(t *testing.T) {
		code, src := testBlock(t, 4, 40, 9)
		index := uint32(40)
		if n := testing.AllocsPerRun(200, func() { code.encode(src, index); index++ }); n != 0 {
			t.Errorf("encode: %v allocs, want 0", n)
		}
	})

	t.Run("peel", func(t *testing.T) {
		code, src := testBlock(t, 4, 300, 5)
		dec := NewDecoder(code)
		index := uint32(0)
		if n := testing.AllocsPerRun(200, func() {
			if _, err := dec.Add(index, src[index]); err != nil {
				t.Fatal(err)
			}
			index++
		}); n != 0 {
			t.Errorf("Decoder.Add of a degree-1 symbol: %v allocs, want 0", n)
		}
	})

	t.Run("receive", func(t *testing.T) {
		stream := blockStream(t, o, x)
		_, rx := newPair(t, o, x)
		rx.queue = make([]wire.Bit, 0, len(x))
		i := 0
		if n := testing.AllocsPerRun(len(stream)-1, func() {
			if err := rx.Apply(stream[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("receiver absorbing a lossy stream: %v allocs per symbol, want 0", n)
		}
		if !bitsEqual(rx.queue, x) {
			t.Fatalf("receiver decoded %d blocks to the wrong bits", rx.NextBlock())
		}
	})
}

// TestMemoizedSendStaysPure mutates the transmitter between NextLocal and
// Apply: an ack for the block NextLocal was about to send moves the
// state on, so the action NextLocal returned is stale and Apply must
// reject it, as it would without the memo.
func TestMemoizedSendStaysPure(t *testing.T) {
	o := testOptions(5)
	tx, _ := newPair(t, o, testInput(t, o, 4))
	stale, ok := tx.NextLocal()
	if !ok {
		t.Fatal("transmitter has no enabled send")
	}
	ack := wire.DecodeAckMsg{Next: 1}
	if err := tx.Apply(wire.Recv{Dir: wire.RtoT, P: wire.DecodeAckPacket(ack), Payload: string(wire.AppendDecodeAck(nil, ack))}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Apply(stale); !errors.Is(err, ioa.ErrNotEnabled) {
		t.Fatalf("stale send after an ack: Apply = %v, want ErrNotEnabled", err)
	}
	cs, err := wire.ParseCodedSymbol([]byte(step(t, tx, wire.KindSend).(wire.Send).Payload))
	if err != nil || cs.Block != 1 || cs.Index != 0 {
		t.Fatalf("send after the ack: %v (%v), want block 1 index 0", cs, err)
	}
}

// BenchmarkRatelessSend is one transmitter send step: pick, encode the
// coded symbol, the record and its boxed send, and the effect.
func BenchmarkRatelessSend(b *testing.B) {
	o := testOptions(3)
	bld, err := NewBuilder(o)
	if err != nil {
		b.Fatal(err)
	}
	x := wire.RandomBits(1000*bld.BlockBits(), (&prng{state: 1}).next)
	tx, _, err := bld.NewPair(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tx.NextLocal(); !ok {
			b.StopTimer()
			if tx, _, err = bld.NewPair(x); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		step(b, tx, wire.KindSend)
	}
}

// BenchmarkPeel is one block peeled from a lossy stream: Decoder.Add
// over δ1 = 6 source symbols of k = 4, with every seventh coded symbol
// lost, until the block decodes. The decoder is reset between blocks,
// as the receiver recycles it.
func BenchmarkPeel(b *testing.B) {
	n := testParams.Delta1()
	type sym struct {
		index uint32
		value wire.Symbol
	}
	const blocks = 64
	streams := make([][]sym, blocks)
	lost := 0
	for bi := range streams {
		code, src := testBlock(b, 4, n, BlockSeed(1, uint32(bi)))
		ref := NewDecoder(code)
		for index := uint32(0); !ref.Done(); index++ {
			if lost++; lost%7 == 0 {
				continue
			}
			v := code.encode(src, index)
			if _, err := ref.Add(index, v); err != nil {
				b.Fatal(err)
			}
			streams[bi] = append(streams[bi], sym{index, v})
		}
	}
	dec := NewDecoder(&Code{k: 4, n: n})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bi := i % blocks
		dec.reset(BlockSeed(1, uint32(bi)))
		for _, s := range streams[bi] {
			if _, err := dec.Add(s.index, s.value); err != nil {
				b.Fatal(err)
			}
		}
		if !dec.Done() {
			b.Fatalf("block %d not decoded", bi)
		}
	}
}
