package combi

import (
	"testing"
	"testing/quick"
)

func TestWordsCountAndOrder(t *testing.T) {
	var got [][]int
	Words(3, 2, func(w []int) bool {
		cp := append([]int(nil), w...)
		got = append(got, cp)
		return true
	})
	if len(got) != 9 {
		t.Fatalf("enumerated %d words, want 9", len(got))
	}
	if got[0][0] != 0 || got[0][1] != 0 {
		t.Errorf("first word = %v, want [0 0]", got[0])
	}
	if got[8][0] != 2 || got[8][1] != 2 {
		t.Errorf("last word = %v, want [2 2]", got[8])
	}
	// Lexicographic order.
	for i := 1; i < len(got); i++ {
		if !lexLess(got[i-1], got[i]) {
			t.Errorf("words out of order at %d: %v then %v", i, got[i-1], got[i])
		}
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestWordsEdgeCases(t *testing.T) {
	count := 0
	Words(4, 0, func(w []int) bool {
		if len(w) != 0 {
			t.Errorf("zero-length word has len %d", len(w))
		}
		count++
		return true
	})
	if count != 1 {
		t.Errorf("k=0 yielded %d words, want 1 (the empty word)", count)
	}
	Words(0, 3, func([]int) bool {
		t.Error("base=0 must yield nothing")
		return false
	})
	count = 0
	Words(2, 3, func([]int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop after %d words, want 3", count)
	}
}

func TestWordIndexRoundTrip(t *testing.T) {
	f := func(baseRaw, kRaw uint8) bool {
		base := 1 + int(baseRaw)%4
		k := int(kRaw) % 5
		i := 0
		ok := true
		buf := make([]int, k)
		Words(base, k, func(w []int) bool {
			if WordIndex(base, w) != i {
				ok = false
				return false
			}
			WordAt(base, i, buf)
			for j := range buf {
				if buf[j] != w[j] {
					ok = false
					return false
				}
			}
			i++
			return true
		})
		return ok && i == CountWords(base, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubsets(t *testing.T) {
	var masks []uint64
	Subsets(3, func(m uint64) bool {
		masks = append(masks, m)
		return true
	})
	if len(masks) != 7 {
		t.Fatalf("Subsets(3) yielded %d masks, want 7", len(masks))
	}
	for i, m := range masks {
		if m != uint64(i+1) {
			t.Errorf("mask #%d = %d, want %d", i, m, i+1)
		}
	}
	count := 0
	Subsets(4, func(uint64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop after %d masks, want 2", count)
	}
}

func TestPick(t *testing.T) {
	got := Pick(0b1011, nil)
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("Pick = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pick = %v, want %v", got, want)
		}
	}
}

// WordIndex returns the position of word in the Words enumeration order.
func WordIndex(base int, word []int) int {
	idx := 0
	for _, w := range word {
		idx = idx*base + w
	}
	return idx
}

// WordAt fills dst with the word at position idx in the Words order and
// returns dst.
func WordAt(base, idx int, dst []int) []int {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = idx % base
		idx /= base
	}
	return dst
}

// Pick returns the elements of mask as indices, appended to dst.
func Pick(mask uint64, dst []int) []int {
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			dst = append(dst, i)
		}
		mask >>= 1
	}
	return dst
}
