package rateless

import (
	"testing"

	"repro/internal/wire"
)

func testBlock(t testing.TB, k, n int, seed uint64) (*Code, []wire.Symbol) {
	t.Helper()
	code, err := NewCode(k, n, seed)
	if err != nil {
		t.Fatalf("NewCode(%d,%d): %v", k, n, err)
	}
	rng := prng{state: mix(seed ^ 0xabcdef)}
	src := make([]wire.Symbol, n)
	for i := range src {
		src[i] = wire.Symbol(rng.next() % uint64(k))
	}
	return code, src
}

func TestNewCodeValidation(t *testing.T) {
	if _, err := NewCode(1, 6, 1); err == nil {
		t.Fatal("accepted k=1")
	}
	if _, err := NewCode(4, 0, 1); err == nil {
		t.Fatal("accepted n=0")
	}
}

func TestCodeDeterministic(t *testing.T) {
	a, _ := NewCode(4, 6, 99)
	b, _ := NewCode(4, 6, 99)
	for idx := uint32(0); idx < 200; idx++ {
		na, nb := a.Neighbors(idx), b.Neighbors(idx)
		if len(na) != len(nb) {
			t.Fatalf("index %d: neighbor count %d vs %d", idx, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("index %d: neighbors diverge: %v vs %v", idx, na, nb)
			}
		}
	}
	// Different seeds must give different streams somewhere.
	c, _ := NewCode(4, 6, 100)
	same := true
	for idx := uint32(6); idx < 60 && same; idx++ {
		na, nc := a.Neighbors(idx), c.Neighbors(idx)
		if len(na) != len(nc) {
			same = false
			break
		}
		for i := range na {
			if na[i] != nc[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 99 and 100 produced identical neighbor streams")
	}
}

func TestSystematicPrefix(t *testing.T) {
	code, src := testBlock(t, 4, 6, 7)
	for i := 0; i < 6; i++ {
		n := code.Neighbors(uint32(i))
		if len(n) != 1 || n[0] != i {
			t.Fatalf("systematic index %d: neighbors %v", i, n)
		}
		v, err := code.Encode(src, uint32(i))
		if err != nil {
			t.Fatalf("Encode(%d): %v", i, err)
		}
		if v != src[i] {
			t.Fatalf("systematic symbol %d = %v, want %v", i, v, src[i])
		}
	}
}

func TestNeighborsWellFormed(t *testing.T) {
	code, _ := testBlock(t, 4, 6, 13)
	for idx := uint32(0); idx < 500; idx++ {
		n := code.Neighbors(idx)
		if len(n) < 1 || len(n) > 6 {
			t.Fatalf("index %d: degree %d out of [1,6]", idx, len(n))
		}
		seen := map[int]bool{}
		for _, pos := range n {
			if pos < 0 || pos >= 6 {
				t.Fatalf("index %d: neighbor %d out of range", idx, pos)
			}
			if seen[pos] {
				t.Fatalf("index %d: duplicate neighbor %d", idx, pos)
			}
			seen[pos] = true
		}
	}
}

func TestDecodeSystematicOnly(t *testing.T) {
	code, src := testBlock(t, 4, 6, 21)
	dec := NewDecoder(code)
	for i := 0; i < 6; i++ {
		v, _ := code.Encode(src, uint32(i))
		done, err := dec.Add(uint32(i), v)
		if err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		if done != (i == 5) {
			t.Fatalf("Add(%d): done = %v", i, done)
		}
	}
	got := dec.Source()
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("decoded %v, want %v", got, src)
		}
	}
}

// TestDecodeUnderLoss drops a deterministic pattern of symbols and
// checks the decoder still recovers every block from the survivors.
func TestDecodeUnderLoss(t *testing.T) {
	for trial := uint64(0); trial < 50; trial++ {
		code, src := testBlock(t, 4, 6, 1000+trial)
		dec := NewDecoder(code)
		drop := prng{state: mix(trial * 77)}
		var fed int
		for idx := uint32(0); !dec.Done(); idx++ {
			if idx > 10_000 {
				t.Fatalf("trial %d: no decode after 10k symbols", trial)
			}
			if drop.next()%100 < 30 { // 30% loss
				continue
			}
			v, err := code.Encode(src, idx)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if _, err := dec.Add(idx, v); err != nil {
				t.Fatalf("Add: %v", err)
			}
			fed++
		}
		got := dec.Source()
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("trial %d: decoded %v, want %v", trial, got, src)
			}
		}
		if fed < 6 {
			t.Fatalf("trial %d: decoded from %d < n symbols", trial, fed)
		}
	}
}

// TestDecodeOutOfOrder feeds the survivors in reverse to confirm
// ordering is irrelevant (the non-FIFO channel premise).
func TestDecodeOutOfOrder(t *testing.T) {
	code, src := testBlock(t, 4, 6, 31)
	var symbols []wire.CodedSymbol
	for idx := uint32(0); idx < 24; idx++ {
		v, _ := code.Encode(src, idx)
		symbols = append(symbols, wire.CodedSymbol{Index: idx, Value: v})
	}
	dec := NewDecoder(code)
	for i := len(symbols) - 1; i >= 0; i-- {
		if _, err := dec.Add(symbols[i].Index, symbols[i].Value); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if !dec.Done() {
		t.Fatal("24 reversed symbols did not decode a 6-symbol block")
	}
	got := dec.Source()
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("decoded %v, want %v", got, src)
		}
	}
}

func TestDecoderRejectsBadValue(t *testing.T) {
	code, _ := testBlock(t, 4, 6, 41)
	dec := NewDecoder(code)
	if _, err := dec.Add(0, wire.Symbol(4)); err == nil {
		t.Fatal("accepted value = k")
	}
	if _, err := dec.Add(0, wire.Symbol(-1)); err == nil {
		t.Fatal("accepted negative value")
	}
}

func TestDecoderIgnoresDuplicates(t *testing.T) {
	code, src := testBlock(t, 4, 6, 51)
	dec := NewDecoder(code)
	v, _ := code.Encode(src, 0)
	for i := 0; i < 5; i++ {
		if _, err := dec.Add(0, v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if dec.Received() != 1 {
		t.Fatalf("Received() = %d after duplicates, want 1", dec.Received())
	}
}

func TestBlockSeedVaries(t *testing.T) {
	seen := map[uint64]uint32{}
	for b := uint32(0); b < 1000; b++ {
		s := BlockSeed(42, b)
		if prev, dup := seen[s]; dup {
			t.Fatalf("blocks %d and %d share seed %x", prev, b, s)
		}
		seen[s] = b
	}
	if BlockSeed(42, 0) == BlockSeed(43, 0) {
		t.Fatal("base seeds 42 and 43 collide at block 0")
	}
}
