package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Stream generation for the daemon workloads. Every document is generated
// from the seed (see populationSeed); the daemon sees only these bytes.
//
// The stream is a sequence of scenario documents:
//   - fresh n=3 oblivious adversaries, each over 2..5 distinct random round
//     graphs, checked to maxHorizon 5;
//   - respellings of an earlier fresh document: the same graph set with the
//     graphs reordered and renamed, or the same expression wrapped in an
//     intersect with unrestricted (on either side). ma.Normalize and the
//     canonical fingerprint make each one a cache hit on its original;
//   - the repository's committed sweep-* templates, interleaved.

const (
	streamN          = 3
	streamMaxHorizon = 5
	// respellEvery: one document in respellEvery is a respelling.
	respellEvery = 5
	// templateEvery: one document in templateEvery is a committed template.
	templateEvery = 40
	// respellLag: a respelling refers to a fresh document at least this many
	// positions back, so with two clients its original is normally finished.
	respellLag = 4
)

// Doc is one generated submission.
type Doc struct {
	Name string
	Body []byte
	// Kind is "fresh", "respell" or "template".
	Kind string
}

// graphSpec is one fresh adversary: a set of 3-node graphs as off-diagonal
// edge masks.
type graphSpec struct {
	masks []int
}

// offDiag lists the ordered process pairs (1-based) of a 3-node graph.
var offDiag = func() [][2]int {
	var out [][2]int
	for p := 1; p <= streamN; p++ {
		for q := 1; q <= streamN; q++ {
			if p != q {
				out = append(out, [2]int{p, q})
			}
		}
	}
	return out
}()

// edgeList renders an off-diagonal edge mask in the scenario edge syntax.
func edgeList(mask int) string {
	var parts []string
	for b, pq := range offDiag {
		if mask&(1<<b) != 0 {
			parts = append(parts, fmt.Sprintf("%d->%d", pq[0], pq[1]))
		}
	}
	return strings.Join(parts, ", ")
}

// scenarioDoc is the subset of the scenario format the generator writes.
type scenarioDoc struct {
	Name      string            `json:"name"`
	N         int               `json:"n"`
	Graphs    map[string]string `json:"graphs"`
	Adversary any               `json:"adversary"`
	Check     map[string]int    `json:"check"`
}

// render writes a fresh or respelled document for spec. perm orders the
// graphs, prefix names them, and wrap selects the intersect spelling
// (0 none, 1 unrestricted on the right, 2 on the left).
func render(name string, spec graphSpec, perm []int, prefix string, wrap int) []byte {
	graphs := make(map[string]string, len(spec.masks))
	names := make([]string, len(spec.masks))
	for i, idx := range perm {
		gname := fmt.Sprintf("%s%d", prefix, i+1)
		graphs[gname] = edgeList(spec.masks[idx])
		names[i] = gname
	}
	var adv any = map[string]any{"op": "oblivious", "graphs": names}
	switch wrap {
	case 1:
		adv = map[string]any{"op": "intersect", "args": []any{adv, map[string]any{"op": "unrestricted"}}}
	case 2:
		adv = map[string]any{"op": "intersect", "args": []any{map[string]any{"op": "unrestricted"}, adv}}
	}
	body, err := json.Marshal(scenarioDoc{
		Name:      name,
		N:         streamN,
		Graphs:    graphs,
		Adversary: adv,
		Check:     map[string]int{"maxHorizon": streamMaxHorizon},
	})
	if err != nil {
		panic(err) // the document is built from plain maps and strings
	}
	return body
}

// loadTemplates reads the committed sweep-* templates from the checkout.
func loadTemplates(root string) ([]Doc, error) {
	paths, err := filepath.Glob(filepath.Join(root, "scenarios", "sweep-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenarios/sweep-*.json templates under %s", root)
	}
	sort.Strings(paths)
	var out []Doc
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, Doc{Name: filepath.Base(p), Body: body, Kind: "template"})
	}
	return out, nil
}

// populationSeed fixes the population of fresh adversaries every stream
// draws from. A workload seed shuffles the population, relabels each
// adversary's processes, respells its graph table and picks the
// respellings, so different seeds send different documents (different
// fingerprints, order and spellings) whose analysis costs the same: the
// spread between seeds is measurement noise, not a different job mix.
const populationSeed = 20190729

// population returns count distinct graph sets with 2, 3, 4, 5 graphs in
// turn.
func population(count int) []graphSpec {
	rng := rand.New(rand.NewSource(populationSeed))
	graphsTotal := 1 << len(offDiag)
	seen := map[string]bool{}
	out := make([]graphSpec, 0, count)
	for len(out) < count {
		masks := rng.Perm(graphsTotal)[:2+len(out)%4]
		sorted := append([]int(nil), masks...)
		sort.Ints(sorted)
		key := fmt.Sprint(sorted)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, graphSpec{masks: masks})
	}
	return out
}

// relabel renames the processes of every graph by the permutation perm of
// 0..streamN-1.
func (g graphSpec) relabel(perm []int) graphSpec {
	out := graphSpec{masks: make([]int, len(g.masks))}
	for i, m := range g.masks {
		for b, pq := range offDiag {
			if m&(1<<b) == 0 {
				continue
			}
			p, q := perm[pq[0]-1]+1, perm[pq[1]-1]+1
			out.masks[i] |= 1 << slices.Index(offDiag, [2]int{p, q})
		}
	}
	return out
}

// generateStream returns the stream of count documents for the seed.
func generateStream(seed int64, count int, templates []Doc) []Doc {
	kinds := make([]string, count)
	fresh := 0
	for i := range kinds {
		switch {
		case i%templateEvery == templateEvery/2:
			kinds[i] = "template"
		case i%respellEvery == respellEvery-1 && fresh > respellLag:
			kinds[i] = "respell"
		default:
			kinds[i] = "fresh"
			fresh++
		}
	}
	pop := population(fresh)
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(pop))
	var freshAt []int // stream positions of fresh documents
	specs := map[int]graphSpec{}
	docs := make([]Doc, 0, count)
	nextTemplate := 0
	for i, kind := range kinds {
		switch kind {
		case "template":
			docs = append(docs, templates[nextTemplate%len(templates)])
			nextTemplate++
		case "respell":
			of := freshAt[rng.Intn(len(freshAt)-respellLag)]
			spec := specs[of]
			name := fmt.Sprintf("respell-%d-of-%d", i, of)
			body := render(name, spec, rng.Perm(len(spec.masks)), []string{"A", "R", "g"}[rng.Intn(3)], rng.Intn(3))
			docs = append(docs, Doc{Name: name, Body: body, Kind: kind})
		default:
			spec := pop[order[len(freshAt)]].relabel(rng.Perm(streamN))
			specs[i] = spec
			freshAt = append(freshAt, i)
			name := fmt.Sprintf("gen-%d", i)
			body := render(name, spec, rng.Perm(len(spec.masks)), "G", 0)
			docs = append(docs, Doc{Name: name, Body: body, Kind: kind})
		}
	}
	return docs
}
