package sweep

import (
	"strings"
	"testing"

	"topocon/internal/check"
	"topocon/internal/ma"
)

// TestKeyEncodingRoundTrip: every key the engine actually produces (KeyFor
// over the seed families at several option sets) round-trips through the
// canonical encoding.
func TestKeyEncodingRoundTrip(t *testing.T) {
	advs := []ma.Adversary{ma.LossyLink2(), ma.LossyLink3(), ma.Unrestricted(2)}
	optss := []check.Options{
		{},
		{MaxHorizon: 4},
		{MaxHorizon: 6, InputDomain: 3, CertChainLen: -1, LatencySlack: 1},
	}
	for _, adv := range advs {
		for _, opts := range optss {
			key, err := KeyFor(adv, opts)
			if err != nil {
				t.Fatal(err)
			}
			enc := key.String()
			if !strings.HasPrefix(enc, "v3;fp=") {
				t.Fatalf("encoding %q lacks the version prefix", enc)
			}
			back, err := ParseKey(enc)
			if err != nil {
				t.Fatalf("ParseKey(%q): %v", enc, err)
			}
			if back != key {
				t.Fatalf("round trip drifted:\n in: %+v\nout: %+v", key, back)
			}
			if back.String() != enc {
				t.Fatalf("re-encoding drifted: %q vs %q", back.String(), enc)
			}
		}
	}
}

// TestKeyEncodingInjective: distinct keys have distinct encodings.
func TestKeyEncodingInjective(t *testing.T) {
	a, err := KeyFor(ma.LossyLink3(), check.Options{MaxHorizon: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.Options.MaxHorizon++
	c := a
	c.CertEligible = !c.CertEligible
	if a.String() == b.String() || a.String() == c.String() || b.String() == c.String() {
		t.Fatalf("encodings collide: %q %q %q", a, b, c)
	}
}

// TestParseKeyRejects: non-canonical or malformed encodings are errors, so
// encoded keys are safe content addresses.
func TestParseKeyRejects(t *testing.T) {
	valid, err := KeyFor(ma.LossyLink2(), check.Options{MaxHorizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	enc := valid.String()
	bad := []string{
		"",
		"v3",
		"v1;" + strings.TrimPrefix(enc, "v3;"),   // retired version
		"v2;" + strings.TrimPrefix(enc, "v3;"),   // retired version
		"v4;" + strings.TrimPrefix(enc, "v3;"),   // wrong version
		strings.Replace(enc, ";in=", ";in=+", 1), // "+2" is not canonical
		strings.Replace(enc, ";mh=3", ";mh=03", 1),             // leading zero
		strings.Replace(enc, ";ce=", ";ce=2;x=", 1),            // bad bool + extra field
		strings.Replace(enc, ";ns=0", ";ns=2", 1),              // bad symmetry bool
		strings.Replace(enc, "fp=", "fp=XYZ", 1),               // non-hex fingerprint
		strings.Replace(enc, ";gf=", ";gf=XYZ", 1),             // non-hex group fingerprint
		strings.Replace(enc, ";in=", ";id=", 1),                // wrong tag
		enc + ";extra=1",                                       // trailing field
		strings.ToUpper(enc[:6]) + enc[6:],                     // uppercase hex
		strings.Replace(enc, ";fp=", ";fp= ", 1),               // space
		strings.Replace(enc, ";ls=", ";ls=1"+"\n", 1) + "junk", // newline
	}
	for _, s := range bad {
		if _, err := ParseKey(s); err == nil {
			t.Errorf("ParseKey(%q) accepted a malformed key", s)
		}
	}
	if _, err := ParseKey(enc); err != nil {
		t.Fatalf("ParseKey rejected its own canonical form: %v", err)
	}
}
