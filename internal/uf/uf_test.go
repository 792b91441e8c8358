package uf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	u := New(5)
	if u.Len() != 5 || u.Sets() != 5 {
		t.Fatalf("Len=%d Sets=%d, want 5/5", u.Len(), u.Sets())
	}
	for i := 0; i < 5; i++ {
		if u.Find(i) != i {
			t.Errorf("Find(%d) = %d, want %d", i, u.Find(i), i)
		}
	}
}

func TestUnionBasics(t *testing.T) {
	u := New(4)
	if !u.Union(0, 1) {
		t.Error("first union must report a merge")
	}
	if u.Union(1, 0) {
		t.Error("repeated union must report no merge")
	}
	if !u.Same(0, 1) || u.Same(0, 2) {
		t.Error("Same is wrong after one union")
	}
	if u.Sets() != 3 {
		t.Errorf("Sets() = %d, want 3", u.Sets())
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if u.Sets() != 1 {
		t.Errorf("Sets() = %d, want 1", u.Sets())
	}
	if !u.Same(1, 2) {
		t.Error("transitivity failed")
	}
}

func TestGroups(t *testing.T) {
	u := New(6)
	u.Union(0, 2)
	u.Union(2, 4)
	u.Union(1, 5)
	groups := u.Groups()
	want := [][]int{{0, 2, 4}, {1, 5}, {3}}
	if len(groups) != len(want) {
		t.Fatalf("Groups() = %v, want %v", groups, want)
	}
	for i := range want {
		if len(groups[i]) != len(want[i]) {
			t.Fatalf("group %d = %v, want %v", i, groups[i], want[i])
		}
		for j := range want[i] {
			if groups[i][j] != want[i][j] {
				t.Fatalf("group %d = %v, want %v", i, groups[i], want[i])
			}
		}
	}
}

// TestEquivalenceQuick checks against a brute-force equivalence closure.
func TestEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		u := New(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
			adj[i][i] = true
		}
		for k := 0; k < n; k++ {
			x, y := rng.Intn(n), rng.Intn(n)
			u.Union(x, y)
			adj[x][y], adj[y][x] = true, true
		}
		// Warshall closure.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if !adj[i][k] {
					continue
				}
				for j := 0; j < n; j++ {
					if adj[k][j] {
						adj[i][j] = true
					}
				}
			}
		}
		count := 0
		for i := 0; i < n; i++ {
			isMin := true
			for j := 0; j < i; j++ {
				if adj[i][j] {
					isMin = false
				}
				if adj[i][j] != u.Same(i, j) {
					return false
				}
			}
			if isMin {
				count++
			}
		}
		return count == u.Sets()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int) bool { return u.Find(x) == u.Find(y) }
