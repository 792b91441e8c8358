package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

func TestAtomicWriteFixture(t *testing.T) {
	runFixture(t, "atomicwrite/store", AtomicWrite)
}

func TestAtomicWriteIgnoresNonDurablePackages(t *testing.T) {
	runFixture(t, "atomicwrite/other", AtomicWrite)
}

func TestQuarantineFixture(t *testing.T) {
	runFixture(t, "quarantine/lib", Quarantine)
}

func TestQuarantineIgnoresMainPackages(t *testing.T) {
	runFixture(t, "quarantine/mainpkg", Quarantine)
}

func TestCtxFlowFixture(t *testing.T) {
	runFixture(t, "ctxflow/sweep", CtxFlow)
}

func TestCtxFlowDriverCheckOnlyInLoopPackages(t *testing.T) {
	runFixture(t, "ctxflow/lib", CtxFlow)
}

func TestAllocFreeFixture(t *testing.T) {
	runFixture(t, "allocfree/hot", AllocFree)
}

func TestFacadeSyncFixture(t *testing.T) {
	runFixture(t, "topocon", FacadeSync)
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text      string
		names     []string
		malformed bool
	}{
		{"// a normal comment", nil, false},
		{"//topocon:allocfree", nil, false},
		{"//topocon:allow quarantine -- reason given", []string{"quarantine"}, false},
		{"//topocon:allow ctxflow,allocfree -- two at once", []string{"ctxflow", "allocfree"}, false},
		{"//topocon:allow quarantine", nil, true},
		{"//topocon:allow quarantine -- ", nil, true},
		{"//topocon:allow -- missing names", nil, true},
	}
	for _, c := range cases {
		names, malformed := parseAllow(c.text)
		if malformed != c.malformed || !reflect.DeepEqual(names, c.names) {
			t.Errorf("parseAllow(%q) = %v, %v; want %v, %v", c.text, names, malformed, c.names, c.malformed)
		}
	}
}

func TestAllReturnsFiveAnalyzers(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("All() returned %d analyzers, want 5", len(all))
	}
	for _, a := range all {
		if got := ByName(a.Name); got != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of an unknown name should return nil")
	}
}

// TestRepoIsClean is the meta-test: the repository itself must carry zero
// findings. Every sanctioned exception is expected to hold a justified
// //topocon:allow directive instead of weakening an analyzer.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	diags, err := LoadAndRun("../..", []string{"./..."}, All())
	if err != nil {
		t.Fatalf("running the suite over the repo: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}

// TestVetToolProtocol builds the real binary and runs it the way the go
// command does, end to end.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool binary and vets the module")
	}
	tool := filepath.Join(t.TempDir(), "topoconvet")
	build := exec.Command("go", "build", "-o", tool, "topocon/cmd/topoconvet")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building topoconvet: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = "../.."
	vet.Env = append(os.Environ(), "GOFLAGS=")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool should pass on the clean repo: %v\n%s", err, out)
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
