package multiset

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/wire"
)

// TestCodecNoAlloc pins the served codec path: one shared table per
// (k, n), each NewCodec its own one-allocation codec over it (so that
// no caller can change another's), and a warm
// AppendEncodeSeq/AppendDecode that allocates nothing.
func TestCodecNoAlloc(t *testing.T) {
	c := mustCodec(t, 4, 6)
	again := mustCodec(t, 4, 6)
	if again.table != c.table || again.limit != c.limit {
		t.Error("NewCodec(4, 6) built a second table")
	}
	if again == c {
		t.Error("NewCodec(4, 6) handed out the same codec twice")
	}
	if other := mustCodec(t, 4, 7); other.table == c.table {
		t.Error("NewCodec(4, 7) shares the (4, 6) table")
	}
	if n := testing.AllocsPerRun(100, func() { again, _ = NewCodec(4, 6) }); n > 1 {
		t.Errorf("warm NewCodec(4, 6): %v allocs, want 1", n)
	}
	if !c.fast {
		t.Fatal("(4, 6) should take the uint64 path")
	}
	rng := rand.New(rand.NewSource(1))
	block := wire.RandomBits(c.BlockBits(), rng.Uint64)
	seq := make([]wire.Symbol, 0, c.N())
	bits := make([]wire.Bit, 0, c.BlockBits())
	var err error
	if n := testing.AllocsPerRun(200, func() {
		seq, err = c.AppendEncodeSeq(seq[:0], block)
	}); n != 0 || err != nil {
		t.Errorf("AppendEncodeSeq: %v allocs (err %v), want 0", n, err)
	}
	m, err := FromSeq(c.K(), seq)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		bits, err = c.AppendDecode(bits[:0], m)
	}); n != 0 || err != nil {
		t.Errorf("AppendDecode: %v allocs (err %v), want 0", n, err)
	}
	if wire.BitsToString(bits) != wire.BitsToString(block) {
		t.Errorf("round trip %s -> %s", wire.BitsToString(block), wire.BitsToString(bits))
	}
}

// TestAppendLeavesDstOnError checks that a rejected block or multiset
// leaves the destination untouched, so a receiver can decode straight
// into its output queue.
func TestAppendLeavesDstOnError(t *testing.T) {
	c := mustCodec(t, 3, 4) // μ = 15, L = 3: ranks 8..14 are not codewords
	nonCode, err := c.Unrank(big.NewInt(14))
	if err != nil {
		t.Fatal(err)
	}
	q := []wire.Bit{wire.One}
	if got, err := c.AppendDecode(q, nonCode); err == nil || len(got) != 1 {
		t.Errorf("AppendDecode(non-codeword) = %v, %v; want the queue unchanged and an error", got, err)
	}
	s := []wire.Symbol{2}
	if got, err := c.AppendEncodeSeq(s, []wire.Bit{0, 1, 9}); err == nil || len(got) != 1 {
		t.Errorf("AppendEncodeSeq(invalid bit) = %v, %v; want dst unchanged and an error", got, err)
	}
}

// TestCodecPathsAgree compares the uint64 Encode/Decode path with the
// math/big one on the same (k, n): forcing one codec onto the big path
// leaves the other, and every later NewCodec, on the fast one.
func TestCodecPathsAgree(t *testing.T) {
	fast := mustCodec(t, 5, 9)
	slow := mustCodec(t, 5, 9)
	slow.fast = false
	if !fast.fast || !mustCodec(t, 5, 9).fast {
		t.Fatal("forcing one (5, 9) codec onto the big path changed another")
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		block := wire.RandomBits(fast.BlockBits(), rng.Uint64)
		s1, err1 := fast.EncodeSeq(block)
		s2, err2 := slow.EncodeSeq(block)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		m, err := FromSeq(5, s1)
		if err != nil {
			t.Fatal(err)
		}
		if m2, _ := FromSeq(5, s2); !m.Equal(m2) {
			t.Fatalf("block %s: fast %v != big %v", wire.BitsToString(block), s1, s2)
		}
		b1, err1 := fast.Decode(m)
		b2, err2 := slow.Decode(m)
		if err1 != nil || err2 != nil || wire.BitsToString(b1) != wire.BitsToString(b2) {
			t.Fatalf("decode %v: fast %v (%v), big %v (%v)", m, b1, err1, b2, err2)
		}
		r := new(big.Int).Rand(rng, fast.Mu())
		u1, _ := fast.Unrank(r)
		u2, _ := slow.Unrank(r)
		_, e1 := fast.Decode(u1)
		_, e2 := slow.Decode(u2)
		if !u1.Equal(u2) || (e1 == nil) != (e2 == nil) {
			t.Fatalf("rank %v: fast %v (%v), big %v (%v)", r, u1, e1, u2, e2)
		}
	}
}

// TestSharedCodecConcurrent encodes and decodes from 64 goroutines over
// one shared table: half share one codec, half build their own with
// NewCodec as they start. Run it under -race.
func TestSharedCodecConcurrent(t *testing.T) {
	shared := mustCodec(t, 4, 6)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := shared, error(nil)
			if seed%2 == 1 {
				if c, err = NewCodec(4, 6); err != nil {
					errs <- err
					return
				}
			}
			rng := rand.New(rand.NewSource(seed))
			var seq []wire.Symbol
			var bits []wire.Bit
			for i := 0; i < 200; i++ {
				block := wire.RandomBits(c.BlockBits(), rng.Uint64)
				if seq, err = c.AppendEncodeSeq(seq[:0], block); err != nil {
					errs <- err
					return
				}
				m, err := FromSeq(4, seq)
				if err != nil {
					errs <- err
					return
				}
				if bits, err = c.AppendDecode(bits[:0], m); err != nil {
					errs <- err
					return
				}
				if wire.BitsToString(bits) != wire.BitsToString(block) {
					t.Errorf("round trip %s -> %s", wire.BitsToString(block), wire.BitsToString(bits))
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	c, err := NewCodec(4, 6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	m, err := c.Encode(wire.RandomBits(c.BlockBits(), rng.Uint64))
	if err != nil {
		b.Fatal(err)
	}
	bits := make([]wire.Bit, 0, c.BlockBits())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bits, err = c.AppendDecode(bits[:0], m); err != nil {
			b.Fatal(err)
		}
	}
}
