package sweep

import (
	"encoding/json"
	"fmt"
	"strings"

	"topocon/internal/scenario"
)

// CellResult is one grid cell's outcome in a sweep report.
type CellResult struct {
	// Name is the cell's scenario name (template name plus bindings).
	Name string `json:"name"`
	// Bindings are the cell's parameter values, in canonical order.
	Bindings []scenario.Binding `json:"bindings"`
	// Fingerprint is the cache key's behavioural hash ("" if keying failed).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Status is done, error or cancelled.
	Status string `json:"status"`
	// Verdict, Exact and SeparationHorizon carry the analysis outcome
	// (Status done only; SeparationHorizon is -1 when unseen).
	Verdict           string `json:"verdict,omitempty"`
	Exact             bool   `json:"exact,omitempty"`
	SeparationHorizon int    `json:"separationHorizon"`
	// Horizon is the deepest analysed horizon; Runs the size of its prefix
	// space — for cache hits, of the session that originally solved the key.
	Horizon int `json:"horizon"`
	Runs    int `json:"runs"`
	// Expect is the spec's pinned verdict ("" if unpinned); Match compares
	// it with the computed one (absent if unpinned or not done).
	Expect string `json:"expect,omitempty"`
	Match  *bool  `json:"match,omitempty"`
	// CacheHit reports that the verdict came from the cache, including
	// waiting on a concurrent solve of the same key; CacheTier attributes
	// its origin ("memory": solved earlier in this process, "disk": served
	// by the persistent verdict store; empty for misses).
	CacheHit  bool   `json:"cacheHit"`
	CacheTier string `json:"cacheTier,omitempty"`
	// Worker, Attempt and StolenFrom attribute the cell in coordinated
	// multi-worker sweeps: Worker identifies the topoconsvc instance that
	// produced the result, Attempt is the coordinator's 1-based dispatch
	// attempt, and StolenFrom names the dead worker whose expired lease
	// this attempt took over before recomputing the cell. All empty/zero
	// in single-process sweeps.
	Worker     string `json:"worker,omitempty"`
	Attempt    int    `json:"attempt,omitempty"`
	StolenFrom string `json:"stolenFrom,omitempty"`
	// WallMillis is this cell's wall-clock cost (≈ 0 for cache hits).
	WallMillis float64 `json:"wallMillis"`
	// Notes carries checker anomalies; Err the failure for Status error.
	Notes []string `json:"notes,omitempty"`
	Err   string   `json:"error,omitempty"`
}

// Summary aggregates a sweep's cells.
type Summary struct {
	Cells     int `json:"cells"`
	Done      int `json:"done"`
	Errors    int `json:"errors"`
	Cancelled int `json:"cancelled"`

	Solvable   int `json:"solvable"`
	Impossible int `json:"impossible"`
	Unknown    int `json:"unknown"`
	Mismatches int `json:"mismatches"`

	// CacheHits + CacheMisses = Done; MemoryHits + DiskHits = CacheHits
	// (disk hits are verdicts that originated in the persistent store);
	// DistinctKeys is the number of keys the cache ended up holding
	// (grid-wide when the cache is per-sweep, global when shared across
	// sweeps).
	CacheHits    int `json:"cacheHits"`
	MemoryHits   int `json:"memoryHits"`
	DiskHits     int `json:"diskHits"`
	CacheMisses  int `json:"cacheMisses"`
	DistinctKeys int `json:"distinctKeys"`

	// Paging aggregates the solved cells' out-of-core traffic; all-zero
	// (and omitted from JSON) for sweeps without a CheckpointDir.
	Paging PagingSummary `json:"paging,omitzero"`
}

// PagingSummary aggregates paging gauges across a run's solved
// cells (cache hits contribute nothing — their sessions never run).
type PagingSummary struct {
	// PagesSpilled and PagesFaulted total the pager eviction/fault traffic.
	PagesSpilled int64 `json:"pagesSpilled"`
	PagesFaulted int64 `json:"pagesFaulted"`
	// HotBytes is the largest peak resident page-payload size any single
	// cell reached.
	HotBytes int64 `json:"hotBytes"`
}

// Report is the structured outcome of one sweep run.
type Report struct {
	// Template names the swept template; Params its expanded parameters.
	Template string           `json:"template"`
	Params   []scenario.Param `json:"params"`
	// Workers is the worker-pool size the sweep ran with.
	Workers int `json:"workers"`
	// WallMillis is the whole sweep's wall-clock time.
	WallMillis float64 `json:"wallMillis"`
	// Cells are the per-cell results, in grid (odometer) order.
	Cells []CellResult `json:"cells"`
	// Summary aggregates the cells.
	Summary Summary `json:"summary"`
}

// Summarize aggregates externally-produced cell results — the
// coordinator's merged multi-worker reports. With no cache to consult,
// DistinctKeys is the number of distinct cell fingerprints.
func Summarize(cells []CellResult) Summary {
	s := summarize(cells, nil)
	fps := make(map[string]struct{}, len(cells))
	for i := range cells {
		if fp := cells[i].Fingerprint; fp != "" {
			fps[fp] = struct{}{}
		}
	}
	s.DistinctKeys = len(fps)
	return s
}

func summarize(cells []CellResult, cache *Cache) Summary {
	s := Summary{Cells: len(cells)}
	if cache != nil {
		s.DistinctKeys = cache.Len()
	}
	for i := range cells {
		c := &cells[i]
		switch c.Status {
		case StatusDone:
			s.Done++
			switch c.CacheTier {
			case TierMemory.String():
				s.CacheHits++
				s.MemoryHits++
			case TierDisk.String():
				s.CacheHits++
				s.DiskHits++
			default:
				s.CacheMisses++
			}
			switch c.Verdict {
			case "solvable":
				s.Solvable++
			case "impossible":
				s.Impossible++
			case "unknown":
				s.Unknown++
			}
			if c.Match != nil && !*c.Match {
				s.Mismatches++
			}
		case StatusError:
			s.Errors++
		case StatusCancelled:
			s.Cancelled++
		}
	}
	return s
}

// Normalize zeroes every timing field, making reports comparable across
// runs — the golden-file tests pin normalized reports.
func (r *Report) Normalize() {
	r.WallMillis = 0
	for i := range r.Cells {
		r.Cells[i].WallMillis = 0
	}
}

// JSON marshals the report, indented.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report as a human-readable table plus a summary line.
func (r *Report) Table() string {
	var sb strings.Builder
	nameW := len("cell")
	for i := range r.Cells {
		if w := len(r.Cells[i].Name); w > nameW {
			nameW = w
		}
	}
	fmt.Fprintf(&sb, "%-*s  %-10s  %3s  %7s  %8s  %-5s  %9s\n",
		nameW, "cell", "verdict", "sep", "horizon", "runs", "cache", "time")
	for i := range r.Cells {
		c := &r.Cells[i]
		verdict := c.Verdict
		switch c.Status {
		case StatusError:
			verdict = "ERROR"
		case StatusCancelled:
			verdict = "-"
		}
		mark := ""
		if c.Match != nil && !*c.Match {
			mark = " MISMATCH(expect " + c.Expect + ")"
		}
		cache := "miss"
		switch c.CacheTier {
		case "memory":
			cache = "hit"
		case "disk":
			cache = "disk"
		}
		if c.Status != StatusDone {
			cache = "-"
		}
		fmt.Fprintf(&sb, "%-*s  %-10s  %3s  %7s  %8s  %-5s  %8.1fms%s\n",
			nameW, c.Name, verdict,
			dash(c.SeparationHorizon, c.Status), dash(c.Horizon, c.Status), dash(c.Runs, c.Status),
			cache, c.WallMillis, mark)
		if c.Err != "" {
			fmt.Fprintf(&sb, "%-*s    %s\n", nameW, "", c.Err)
		}
	}
	s := r.Summary
	fmt.Fprintf(&sb, "\ncells %d  done %d  errors %d  cancelled %d  |  solvable %d  impossible %d  unknown %d  mismatches %d\n",
		s.Cells, s.Done, s.Errors, s.Cancelled, s.Solvable, s.Impossible, s.Unknown, s.Mismatches)
	hitRate := 0.0
	if s.Done > 0 {
		hitRate = 100 * float64(s.CacheHits) / float64(s.Done)
	}
	fmt.Fprintf(&sb, "cache %d hits / %d misses (%.0f%% hit rate, %d memory + %d disk, %d distinct keys)  |  wall %.1fms with %d workers\n",
		s.CacheHits, s.CacheMisses, hitRate, s.MemoryHits, s.DiskHits, s.DistinctKeys, r.WallMillis, r.Workers)
	if p := s.Paging; p != (PagingSummary{}) {
		fmt.Fprintf(&sb, "paging %d spilled / %d faulted (peak hot %d B)\n",
			p.PagesSpilled, p.PagesFaulted, p.HotBytes)
	}
	return sb.String()
}

// dash renders a cell statistic, or "-" for cells that never ran.
func dash(v int, status string) string {
	if status != StatusDone {
		return "-"
	}
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}
