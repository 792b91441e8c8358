package sweep

import (
	"fmt"
	"strconv"
	"strings"
)

// KeyEncodingVersion is the current canonical key-encoding version. The
// version is the first token of every encoded key, so stores that address
// records by encoded keys can evolve the format without silently mixing
// incompatible generations: a version bump makes every old encoding
// unparseable rather than wrongly equal.
//
// v2 added the automorphism-group fingerprint (gf) and the NoSymmetry
// option bit (ns): v1 records predate the symmetry quotient and carry
// Runs counts and cert-eligibility judgements from the unquotiented
// checker, so they are retired wholesale rather than reinterpreted.
//
// v3 keeps v2's fields. It retires v2 records because the bivalence
// certificate search now declines word spaces past its size cap (n = 8 at
// the default chain length 3, see check.Options.CertChainLen), where the
// v2 engine ran the search; a v2 verdict for such a cell could disagree
// with a fresh compute.
const KeyEncodingVersion = 3

// String returns the key's canonical byte encoding:
//
//	v3;fp=<hex fingerprint>;gf=<hex group fingerprint>;in=<InputDomain>;
//	mh=<MaxHorizon>;mr=<MaxRuns>;dv=<DefaultValue>;cc=<CertChainLen>;
//	ls=<LatencySlack>;ns=<0|1>;ce=<0|1>
//
// (one line, no spaces). The encoding is injective and canonical: two keys
// are equal iff their encodings are byte-equal, and ParseKey accepts
// exactly the strings String produces. Disk stores content-address records
// by this encoding; treat it as a stable, versioned format.
func (k Key) String() string {
	ns, ce := 0, 0
	if k.Options.NoSymmetry {
		ns = 1
	}
	if k.CertEligible {
		ce = 1
	}
	return fmt.Sprintf("v%d;fp=%s;gf=%s;in=%d;mh=%d;mr=%d;dv=%d;cc=%d;ls=%d;ns=%d;ce=%d",
		KeyEncodingVersion, k.Fingerprint, k.GroupFingerprint,
		k.Options.InputDomain, k.Options.MaxHorizon, k.Options.MaxRuns,
		k.Options.DefaultValue, k.Options.CertChainLen, k.Options.LatencySlack, ns, ce)
}

// ParseKey parses the canonical encoding produced by Key.String. It is
// strict: any deviation from the canonical form — unknown version, field
// order, spacing, non-canonical integers ("01", "+1"), a fingerprint that
// is not lowercase hex — is an error, so parse-then-reencode is always the
// identity and encoded keys are safe content addresses.
func ParseKey(s string) (Key, error) {
	parts := strings.Split(s, ";")
	if len(parts) != 11 {
		return Key{}, fmt.Errorf("sweep: key %q: want 11 ';'-separated fields, have %d", s, len(parts))
	}
	if parts[0] != fmt.Sprintf("v%d", KeyEncodingVersion) {
		return Key{}, fmt.Errorf("sweep: key %q: unsupported version %q (want v%d)", s, parts[0], KeyEncodingVersion)
	}
	fp, err := keyField(parts[1], "fp")
	if err != nil {
		return Key{}, fmt.Errorf("sweep: key %q: %w", s, err)
	}
	if !isHex(fp) {
		return Key{}, fmt.Errorf("sweep: key %q: fingerprint is not lowercase hex", s)
	}
	gf, err := keyField(parts[2], "gf")
	if err != nil {
		return Key{}, fmt.Errorf("sweep: key %q: %w", s, err)
	}
	if !isHex(gf) {
		return Key{}, fmt.Errorf("sweep: key %q: group fingerprint is not lowercase hex", s)
	}
	var k Key
	k.Fingerprint = fp
	k.GroupFingerprint = gf
	ints := []struct {
		tag string
		dst *int
	}{
		{"in", &k.Options.InputDomain},
		{"mh", &k.Options.MaxHorizon},
		{"mr", &k.Options.MaxRuns},
		{"dv", &k.Options.DefaultValue},
		{"cc", &k.Options.CertChainLen},
		{"ls", &k.Options.LatencySlack},
	}
	for i, f := range ints {
		v, err := keyField(parts[3+i], f.tag)
		if err != nil {
			return Key{}, fmt.Errorf("sweep: key %q: %w", s, err)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return Key{}, fmt.Errorf("sweep: key %q: field %s: %w", s, f.tag, err)
		}
		*f.dst = n
	}
	ns, err := keyField(parts[9], "ns")
	if err != nil {
		return Key{}, fmt.Errorf("sweep: key %q: %w", s, err)
	}
	switch ns {
	case "0":
		k.Options.NoSymmetry = false
	case "1":
		k.Options.NoSymmetry = true
	default:
		return Key{}, fmt.Errorf("sweep: key %q: field ns must be 0 or 1", s)
	}
	ce, err := keyField(parts[10], "ce")
	if err != nil {
		return Key{}, fmt.Errorf("sweep: key %q: %w", s, err)
	}
	switch ce {
	case "0":
		k.CertEligible = false
	case "1":
		k.CertEligible = true
	default:
		return Key{}, fmt.Errorf("sweep: key %q: field ce must be 0 or 1", s)
	}
	// Canonicality: the only accepted spelling of a key is its own
	// re-encoding (rejects "+1", "01", "-0", ...).
	if enc := k.String(); enc != s {
		return Key{}, fmt.Errorf("sweep: key %q is not canonical (canonical form %q)", s, enc)
	}
	return k, nil
}

// keyField strips the "tag=" prefix of one encoded field.
func keyField(part, tag string) (string, error) {
	v, ok := strings.CutPrefix(part, tag+"=")
	if !ok {
		return "", fmt.Errorf("field %q: want prefix %q", part, tag+"=")
	}
	return v, nil
}

func isHex(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
