package sweep

import (
	"strings"
	"testing"

	"topocon/internal/check"
	"topocon/internal/ma"
)

// FuzzKeyRoundTrip fuzzes the canonical key codec from both directions:
// arbitrary strings must either be rejected or round-trip exactly
// (Parse∘String = id and String∘Parse = id), and keys assembled from
// fuzzed field values with a well-formed fingerprint must always
// round-trip. This is the contract disk stores rely on to content-address
// records by encoded keys.
func FuzzKeyRoundTrip(f *testing.F) {
	seed, err := KeyFor(ma.LossyLink3(), check.Options{MaxHorizon: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String(), 2, 7, 0, 0, 5, 2, false, true)
	f.Add("v3;fp=ab;gf=cd;in=1;mh=1;mr=1;dv=0;cc=-1;ls=0;ns=0;ce=0", 1, 1, 1, 0, -1, 0, false, false)
	f.Add("v2;fp=ab;gf=cd;in=1;mh=1;mr=1;dv=0;cc=-1;ls=0;ns=0;ce=0", 1, 1, 1, 0, -1, 0, false, false)
	f.Add("v1;fp=ab;in=1;mh=1;mr=1;dv=0;cc=-1;ls=0;ce=0", 1, 1, 1, 0, -1, 0, true, false)
	f.Add("v3;fp=;gf=;in=;mh=;mr=;dv=;cc=;ls=;ns=;ce=", 0, 0, 0, 0, 0, 0, false, false)
	f.Add("not a key at all", -5, 1<<30, 42, -1, 3, 9, true, true)

	f.Fuzz(func(t *testing.T, s string, in, mh, mr, dv, cc, ls int, ns, ce bool) {
		// Direction 1: hostile string input. Parsing must never panic, and
		// anything accepted must be exactly canonical.
		if k, err := ParseKey(s); err == nil {
			if k.String() != s {
				t.Fatalf("accepted non-canonical encoding %q (canonical %q)", s, k.String())
			}
			k2, err := ParseKey(k.String())
			if err != nil || k2 != k {
				t.Fatalf("re-parse of %q drifted: %+v vs %+v (err %v)", s, k2, k, err)
			}
		}

		// Direction 2: a structurally valid key from fuzzed fields (the
		// fingerprint sanitized to the codec's hex alphabet) must encode,
		// parse and compare as the identity.
		fp := strings.Map(func(r rune) rune {
			if (r >= '0' && r <= '9') || (r >= 'a' && r <= 'f') {
				return r
			}
			return 'a'
		}, s)
		if fp == "" {
			fp = "0"
		}
		k := Key{
			Fingerprint:      fp,
			GroupFingerprint: fp,
			Options: check.Options{
				InputDomain: in, MaxHorizon: mh, MaxRuns: mr,
				DefaultValue: dv, CertChainLen: cc, LatencySlack: ls,
				NoSymmetry: ns,
			},
			CertEligible: ce,
		}
		back, err := ParseKey(k.String())
		if err != nil {
			t.Fatalf("ParseKey(%q) of a well-formed key: %v", k.String(), err)
		}
		if back != k {
			t.Fatalf("round trip drifted:\n in: %+v\nout: %+v", k, back)
		}
	})
}
