package rateless

import (
	"fmt"
	"testing"

	"repro/internal/ioa"
	"repro/internal/rstp"
	"repro/internal/wire"
)

// testParams gives δ1 = 6: six source symbols per block, and with k = 4
// a block carries ⌊log₂ μ_4(6)⌋ = 6 bits.
var testParams = rstp.Params{C1: 1, C2: 1, D: 6}

func testOptions(seed int64) Options {
	return Options{Params: testParams, K: 4, Seed: seed}
}

func testInput(t *testing.T, o Options, blocks int) []wire.Bit {
	t.Helper()
	b, err := NewBuilder(o)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	rng := prng{state: mix(uint64(o.Seed) ^ 0x1234)}
	return wire.RandomBits(blocks*b.BlockBits(), rng.next)
}

// chanOpts models the lossy, reordering, corrupting channel between a
// transmitter and receiver stepped in lockstep.
type chanOpts struct {
	dropSym func(n int) bool             // drop the nth coded symbol (0-based)
	dropAck func(n int) bool             // drop the nth ack
	mutate  func(n int, recv *wire.Recv) // corrupt the nth symbol in flight
	reorder int                          // >0: hold up to this many symbols, deliver in seeded random order
	seed    uint64                       // reorder randomness
}

// runPair drives one transmitter/receiver pair through the channel until
// the transmitter quiesces fully acked (or maxSteps elapse) and returns
// the bits the receiver wrote.
func runPair(t *testing.T, tx *Transmitter, rx *Receiver, o chanOpts, maxSteps int) []wire.Bit {
	t.Helper()
	var (
		written  []wire.Bit
		inflight []wire.Recv
		symN     int
		ackN     int
		rng      = prng{state: mix(o.seed ^ 0x5151)}
	)
	deliverSym := func(recv wire.Recv) {
		if rx.Classify(recv) != ioa.ClassInput {
			t.Fatalf("receiver rejects %v from its signature", recv)
		}
		if err := rx.Apply(recv); err != nil {
			t.Fatalf("receiver Apply(%v): %v", recv, err)
		}
	}
	flush := func(force bool) {
		for len(inflight) > 0 && (o.reorder == 0 || len(inflight) >= o.reorder || force) {
			i := 0
			if o.reorder > 0 {
				i = int(rng.next() % uint64(len(inflight)))
			}
			deliverSym(inflight[i])
			inflight = append(inflight[:i], inflight[i+1:]...)
		}
	}
	for step := 0; step < maxSteps; step++ {
		if act, ok := tx.NextLocal(); ok {
			if err := tx.Apply(act); err != nil {
				t.Fatalf("transmitter Apply(%v): %v", act, err)
			}
			if send, isSend := act.(wire.Send); isSend {
				n := symN
				symN++
				if o.dropSym == nil || !o.dropSym(n) {
					recv := wire.Recv{Dir: send.Dir, P: send.P, Payload: send.Payload}
					if o.mutate != nil {
						o.mutate(n, &recv)
					}
					inflight = append(inflight, recv)
				}
			}
		}
		flush(tx.Done())
		if act, ok := rx.NextLocal(); ok {
			if err := rx.Apply(act); err != nil {
				t.Fatalf("receiver Apply(%v): %v", act, err)
			}
			switch a := act.(type) {
			case wire.Write:
				written = append(written, a.M)
			case wire.Send:
				n := ackN
				ackN++
				if o.dropAck == nil || !o.dropAck(n) {
					recv := wire.Recv{Dir: a.Dir, P: a.P, Payload: a.Payload}
					if tx.Classify(recv) != ioa.ClassInput {
						t.Fatalf("transmitter rejects %v from its signature", recv)
					}
					if err := tx.Apply(recv); err != nil {
						t.Fatalf("transmitter Apply(%v): %v", recv, err)
					}
				}
			}
		}
		if tx.Done() && len(inflight) == 0 {
			break
		}
	}
	// Drain any queued writes and the final ack after the loop exits.
	for i := 0; i < maxSteps; i++ {
		act, ok := rx.NextLocal()
		if !ok {
			break
		}
		w, isWrite := act.(wire.Write)
		_, isSend := act.(wire.Send)
		if !isWrite && !isSend {
			break
		}
		if err := rx.Apply(act); err != nil {
			t.Fatalf("receiver Apply(%v): %v", act, err)
		}
		if isWrite {
			written = append(written, w.M)
		}
	}
	return written
}

func bitsEqual(a, b []wire.Bit) bool {
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

func newPair(t *testing.T, o Options, x []wire.Bit) (*Transmitter, *Receiver) {
	t.Helper()
	b, err := NewBuilder(o)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	tx, rx, err := b.NewPair(x)
	if err != nil {
		t.Fatalf("NewPair: %v", err)
	}
	return tx.(*Transmitter), rx.(*Receiver)
}

func TestCleanTransfer(t *testing.T) {
	o := testOptions(7)
	x := testInput(t, o, 10)
	tx, rx := newPair(t, o, x)
	got := runPair(t, tx, rx, chanOpts{}, 10_000)
	if !tx.Done() {
		t.Fatalf("transmitter not done: acked %d", tx.Acked())
	}
	if !bitsEqual(got, x) {
		t.Fatalf("wrote %s, want %s", wire.BitsToString(got), wire.BitsToString(x))
	}
	// A clean channel decodes every block from its systematic prefix:
	// the only overhead is the repair symbols streamed while acks are in
	// flight, bounded here by a few blocks' worth.
	sent := 0
	for _, idx := range tx.nextIdx {
		sent += int(idx) // next fresh index counts systematic + repairs per block
	}
	budget := 10*6 + 4*6
	if sent > budget {
		t.Fatalf("clean channel spent %d symbols, budget %d", sent, budget)
	}
}

func TestLossyTransfer(t *testing.T) {
	o := testOptions(11)
	x := testInput(t, o, 12)
	tx, rx := newPair(t, o, x)
	drop := prng{state: mix(41)}
	got := runPair(t, tx, rx, chanOpts{
		dropSym: func(int) bool { return drop.next()%100 < 20 },
		dropAck: func(int) bool { return drop.next()%100 < 20 },
	}, 100_000)
	if !tx.Done() {
		t.Fatalf("transmitter not done under 20%% loss: acked %d", tx.Acked())
	}
	if !bitsEqual(got, x) {
		t.Fatalf("wrote %s, want %s", wire.BitsToString(got), wire.BitsToString(x))
	}
}

func TestReorderedTransfer(t *testing.T) {
	o := testOptions(13)
	x := testInput(t, o, 8)
	tx, rx := newPair(t, o, x)
	got := runPair(t, rx2tx(tx), rx, chanOpts{reorder: 8, seed: 99}, 100_000)
	if !tx.Done() {
		t.Fatal("transmitter not done under reordering")
	}
	if !bitsEqual(got, x) {
		t.Fatalf("wrote %s, want %s", wire.BitsToString(got), wire.BitsToString(x))
	}
}

// rx2tx exists to keep runPair call sites uniform.
func rx2tx(tx *Transmitter) *Transmitter { return tx }

func TestCorruptedSymbolsDropped(t *testing.T) {
	o := testOptions(17)
	x := testInput(t, o, 8)
	tx, rx := newPair(t, o, x)
	got := runPair(t, tx, rx, chanOpts{
		mutate: func(n int, recv *wire.Recv) {
			switch n % 5 {
			case 1:
				// Flip a payload byte: the record checksum must catch it.
				b := []byte(recv.Payload)
				b[n%len(b)] ^= 0x41
				recv.Payload = string(b)
			case 3:
				// Corrupt the header symbol only: the cross-check against
				// the intact checksummed payload must catch it.
				recv.P.Symbol ^= 1
			}
		},
	}, 100_000)
	if !tx.Done() {
		t.Fatal("transmitter not done with 40% of symbols corrupted")
	}
	if !bitsEqual(got, x) {
		t.Fatalf("wrote %s, want %s", wire.BitsToString(got), wire.BitsToString(x))
	}
}

// TestLostAcksHealViaStaleSymbols drops most acks; the receiver's
// re-ack-on-stale-symbol path must still cut the stream.
func TestLostAcksHealViaStaleSymbols(t *testing.T) {
	o := testOptions(19)
	x := testInput(t, o, 6)
	tx, rx := newPair(t, o, x)
	got := runPair(t, tx, rx, chanOpts{
		dropAck: func(n int) bool { return n%4 != 3 }, // 75% ack loss
	}, 200_000)
	if !tx.Done() {
		t.Fatalf("transmitter not done under 75%% ack loss: acked %d", tx.Acked())
	}
	if !bitsEqual(got, x) {
		t.Fatalf("wrote %s, want %s", wire.BitsToString(got), wire.BitsToString(x))
	}
}

// TestDeterministicStream pins the per-block seeding: two pairs built
// from the same options and input emit identical coded streams.
func TestDeterministicStream(t *testing.T) {
	o := testOptions(23)
	x := testInput(t, o, 4)
	record := func() []wire.CodedSymbol {
		tx, _ := newPair(t, o, x)
		var out []wire.CodedSymbol
		for i := 0; i < 50; i++ {
			act, ok := tx.NextLocal()
			if !ok {
				break
			}
			if err := tx.Apply(act); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			send := act.(wire.Send)
			cs, err := wire.ParseCodedSymbol([]byte(send.Payload))
			if err != nil {
				t.Fatalf("ParseCodedSymbol: %v", err)
			}
			out = append(out, cs)
		}
		return out
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestTapeResume restarts the receiver mid-transfer at a bit count that
// is not a multiple of the block size: the resumed receiver must write
// exactly the remaining suffix, never re-writing durable bits.
func TestTapeResume(t *testing.T) {
	o := testOptions(29)
	b, err := NewBuilder(o)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	x := testInput(t, o, 8)
	blockBits := b.BlockBits()
	for _, durable := range []int{0, blockBits, blockBits*2 + 1, blockBits*5 - 2, len(x)} {
		tx, rx := newPair(t, o, x)
		rx.ResumeTape(int64(durable))
		got := runPair(t, tx, rx, chanOpts{}, 100_000)
		want := x[durable:]
		if !bitsEqual(got, want) {
			t.Fatalf("resume at %d: wrote %s, want %s", durable, wire.BitsToString(got), wire.BitsToString(want))
		}
		if !tx.Done() {
			t.Fatalf("resume at %d: transmitter not done", durable)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	o := testOptions(31)
	tx, rx := newPair(t, o, nil)
	if _, ok := tx.NextLocal(); ok {
		t.Fatal("empty transmitter has an enabled local action")
	}
	if !tx.Done() {
		t.Fatal("empty transmitter not done")
	}
	if rx.Written() != 0 {
		t.Fatal("empty receiver wrote bits")
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(Options{Params: testParams, K: 1}); err == nil {
		t.Fatal("accepted k=1")
	}
	if _, err := NewBuilder(Options{Params: rstp.Params{C1: 2, C2: 1, D: 6}, K: 4}); err == nil {
		t.Fatal("accepted c2 < c1")
	}
	b, err := NewBuilder(testOptions(1))
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	if _, _, err := b.NewPair(make([]wire.Bit, b.BlockBits()+1)); err == nil {
		t.Fatal("accepted |X| not a multiple of the block size")
	}
	if got := b.String(); got != "rateless(k=4)" {
		t.Fatalf("String() = %q", got)
	}
}

// TestBounds: the rateless loss-free effort must beat A^β(k)'s bound
// (no inter-burst wait) while staying above the active lower bound.
func TestBounds(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		up := UpperBound(testParams, k)
		if beta := rstp.BetaUpperBound(testParams, k); up >= beta {
			t.Fatalf("k=%d: rateless upper %.3f !< beta upper %.3f", k, up, beta)
		}
		if lo := LowerBound(testParams, k); up < lo {
			t.Fatalf("k=%d: rateless upper %.3f below active lower bound %.3f", k, up, lo)
		}
	}
}

// TestDecoderPoolSharedAcrossGoroutines runs lossy transfers of
// different inputs from one Builder on several goroutines at once, as
// receivers served by different muxes do: the builder's decoder pool
// hands drained decoders from one receiver to another, and every
// transfer must still write exactly its own input (run it under -race).
func TestDecoderPoolSharedAcrossGoroutines(t *testing.T) {
	o := testOptions(37)
	b, err := NewBuilder(o)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	for g := 0; g < 4; g++ {
		t.Run(fmt.Sprint(g), func(t *testing.T) {
			t.Parallel()
			rng := prng{state: mix(uint64(g) + 100)}
			x := wire.RandomBits(20*b.BlockBits(), rng.next)
			tx, rx, err := b.NewPair(x)
			if err != nil {
				t.Fatalf("NewPair: %v", err)
			}
			got := runPair(t, tx.(*Transmitter), rx.(*Receiver), chanOpts{
				dropSym: func(int) bool { return rng.next()%100 < 20 },
			}, 100_000)
			if !bitsEqual(got, x) {
				t.Fatalf("wrote %s, want %s", wire.BitsToString(got), wire.BitsToString(x))
			}
		})
	}
}

// partialDecode runs the systematic pass of tx into rx with symbol
// (lost, 0) dropped, so every block but lost decodes, and lets rx write
// what it can and send its ack. It returns that ack's record and its
// receipt.
func partialDecode(t *testing.T, tx *Transmitter, rx *Receiver, lost uint32) (wire.DecodeAckMsg, ioa.Action) {
	t.Helper()
	for i := 0; i < len(tx.codes)*tx.n; i++ {
		send := step(t, tx, wire.KindSend).(wire.Send)
		if cs, _ := wire.ParseCodedSymbol([]byte(send.Payload)); cs.Block == lost && cs.Index == 0 {
			continue
		}
		if err := rx.Apply(recvOf(send)); err != nil {
			t.Fatal(err)
		}
	}
	for rx.wnext < len(rx.queue) {
		step(t, rx, wire.KindWrite)
	}
	send := step(t, rx, wire.KindSend).(wire.Send)
	ack, err := wire.ParseDecodeAck([]byte(send.Payload))
	if err != nil {
		t.Fatal(err)
	}
	return ack, recvOf(send)
}

// TestSelectiveAckSkipsDecodedBlocks: the receiver's mask names the
// blocks it decoded past the frontier, and once the transmitter has it,
// no further symbol of those blocks is sent — only the frontier's. A
// block decoded beyond the mask's reach is never re-acked.
func TestSelectiveAckSkipsDecodedBlocks(t *testing.T) {
	o := testOptions(41)
	x := testInput(t, o, 8)
	tx, rx := newPair(t, o, x)
	ack, recv := partialDecode(t, tx, rx, 2)
	if want := (wire.DecodeAckMsg{Next: 2, Mask: 0b11111}); ack != want {
		t.Fatalf("receiver acked %+v, want %+v", ack, want)
	}
	if err := tx.Apply(recv); err != nil {
		t.Fatal(err)
	}
	var repairs []ioa.Action
	for i := 0; i < 200; i++ {
		send := step(t, tx, wire.KindSend)
		cs, err := wire.ParseCodedSymbol([]byte(send.(wire.Send).Payload))
		if err != nil {
			t.Fatal(err)
		}
		if cs.Block != 2 {
			t.Fatalf("send %d after the mask: block %d, want only the frontier block 2", i, cs.Block)
		}
		repairs = append(repairs, recvOf(send))
	}
	// The frontier's repairs decode it; the receiver then drains every
	// held block and acks the whole input.
	for _, r := range repairs {
		if err := rx.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	for rx.wnext < len(rx.queue) {
		step(t, rx, wire.KindWrite)
	}
	if err := tx.Apply(recvOf(step(t, rx, wire.KindSend))); err != nil {
		t.Fatal(err)
	}
	if !tx.Done() || rx.mask != 0 || !bitsEqual(rx.WrittenBits(), x) {
		t.Fatalf("after the frontier decoded: done %v, mask %b, wrote %s, want %s",
			tx.Done(), rx.mask, wire.BitsToString(rx.WrittenBits()), wire.BitsToString(x))
	}

	// Blocks 67-69 decode beyond the mask's reach (bit 63 names block
	// 66). A repair of one of them is absorbed without a reply: the ack
	// it would arm is the one the transmitter already has. A repair of a
	// block the mask names is still re-acked.
	x = testInput(t, o, 70)
	tx, rx = newPair(t, o, x)
	if ack, _ := partialDecode(t, tx, rx, 2); ack != (wire.DecodeAckMsg{Next: 2, Mask: 1<<64 - 1}) {
		t.Fatalf("receiver acked %+v, want next 2 and blocks 3-66 masked", ack)
	}
	var inReach, outOfReach ioa.Action
	for i := 0; i < 2*len(tx.codes)*tx.n && (inReach == nil || outOfReach == nil); i++ {
		send := step(t, tx, wire.KindSend)
		switch cs, _ := wire.ParseCodedSymbol([]byte(send.(wire.Send).Payload)); cs.Block {
		case 10:
			inReach = recvOf(send)
		case 68:
			outOfReach = recvOf(send)
		}
	}
	if inReach == nil || outOfReach == nil {
		t.Fatal("transmitter sent no repair of block 10 or 68")
	}
	if err := rx.Apply(outOfReach); err != nil {
		t.Fatal(err)
	}
	if rx.pendingAck {
		t.Error("a repair of block 68, beyond the mask, armed an ack")
	}
	if err := rx.Apply(inReach); err != nil {
		t.Fatal(err)
	}
	if !rx.pendingAck {
		t.Error("a repair of masked block 10 armed no ack")
	}
}

// TestStaleMaskStaysLive: the transmitter holds mask bits from a
// receiver that then restarts through ResumeTape and loses the blocks
// they name. The bits are stale, but the frontier block is never
// skipped, so the new receiver still gets every block and writes
// exactly the rest of X under loss.
func TestStaleMaskStaysLive(t *testing.T) {
	o := testOptions(43)
	x := testInput(t, o, 10)
	tx, rx := newPair(t, o, x)
	ack, recv := partialDecode(t, tx, rx, 3)
	if ack.Next != 3 || ack.Mask != 0b111111 {
		t.Fatalf("receiver acked %+v, want next 3 and blocks 4-9 masked", ack)
	}
	if err := tx.Apply(recv); err != nil {
		t.Fatal(err)
	}
	durable := rx.Written()
	_, restarted := newPair(t, o, x)
	restarted.ResumeTape(int64(durable))
	drop := prng{state: mix(47)}
	got := runPair(t, tx, restarted, chanOpts{
		dropSym: func(int) bool { return drop.next()%100 < 15 },
		dropAck: func(int) bool { return drop.next()%100 < 15 },
	}, 100_000)
	if !tx.Done() {
		t.Fatalf("transmitter stalled on stale mask bits: acked %d of %d", tx.Acked(), len(tx.codes))
	}
	if !bitsEqual(append(x[:durable:durable], got...), x) {
		t.Fatalf("restarted receiver wrote %s after %d durable bits, want %s",
			wire.BitsToString(got), durable, wire.BitsToString(x[durable:]))
	}
}
