// Package combi provides small deterministic enumeration helpers used by
// the prefix-space construction: cartesian powers (input assignments, graph
// words) and subset iteration (choosing oblivious adversary graph sets).
package combi

// Words calls yield with every length-k word over the alphabet {0,...,base-1}
// in lexicographic order, reusing a single buffer. Enumeration stops early
// when yield returns false. The buffer must not be retained by yield.
func Words(base, k int, yield func([]int) bool) {
	if base <= 0 || k < 0 {
		return
	}
	word := make([]int, k)
	for {
		if !yield(word) {
			return
		}
		i := k - 1
		for ; i >= 0; i-- {
			word[i]++
			if word[i] < base {
				break
			}
			word[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// CountWords returns base^k, the number of length-k words.
func CountWords(base, k int) int {
	total := 1
	for i := 0; i < k; i++ {
		total *= base
	}
	return total
}

// Subsets calls yield with every non-empty subset of {0,...,n-1}, encoded
// as a bitmask, in increasing mask order. Enumeration stops early when
// yield returns false.
func Subsets(n int, yield func(uint64) bool) {
	total := uint64(1) << uint(n)
	for mask := uint64(1); mask < total; mask++ {
		if !yield(mask) {
			return
		}
	}
}
