package fsx

import (
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Format is the framing of a durable text record. Verdict records, leases
// and checkpoint manifests all share it:
//
//	<Magic> <Version>
//	<Tags[0]> <value 0>
//	…
//	<Tags[n-1]> <value n-1>
//	crc32 <8 lowercase hex digits, CRC32-IEEE over the lines above>
//
// Every line ends in a newline and nothing follows the checksum line.
// Values must not contain a newline; what a value means, and which
// spellings of it are canonical, is the owning package's business.
type Format struct {
	Magic   string
	Version int
	Tags    []string
}

// Encode renders the record with values[i] on the line tagged Tags[i].
func (f Format) Encode(values ...string) []byte {
	b := fmt.Appendf(nil, "%s %d\n", f.Magic, f.Version)
	for i, tag := range f.Tags {
		b = fmt.Appendf(b, "%s %s\n", tag, values[i])
	}
	return fmt.Appendf(b, "crc32 %08x\n", Checksum(b))
}

// Decode checks data against the framing — the exact line count, the
// exact header, the version, the checksum line and each line's tag — and
// returns the values in tag order. Decode(f.Encode(v...)) returns v, and
// any data Decode accepts is the Encode of the values it returns.
func (f Format) Decode(data []byte) ([]string, error) {
	n := len(f.Tags) + 2
	lines := strings.Split(string(data), "\n")
	if len(lines) != n+1 || lines[n] != "" {
		return nil, fmt.Errorf("%s: record must be exactly %d newline-terminated lines", f.Magic, n)
	}
	rest, ok := strings.CutPrefix(lines[0], f.Magic+" ")
	version, err := strconv.Atoi(rest)
	if !ok || err != nil || strconv.Itoa(version) != rest {
		return nil, fmt.Errorf("%s: bad header %q", f.Magic, lines[0])
	}
	if version != f.Version {
		return nil, fmt.Errorf("%s: unsupported version %d", f.Magic, version)
	}
	sum, ok := strings.CutPrefix(lines[n-1], "crc32 ")
	if !ok || len(sum) != 8 {
		return nil, fmt.Errorf("%s: bad checksum line %q", f.Magic, lines[n-1])
	}
	body := data[:len(data)-len(lines[n-1])-1]
	if want := fmt.Sprintf("%08x", Checksum(body)); sum != want {
		return nil, fmt.Errorf("%s: checksum mismatch (%s != %s)", f.Magic, sum, want)
	}
	values := lines[1 : n-1]
	for i, tag := range f.Tags {
		v, ok := strings.CutPrefix(values[i], tag)
		if !ok || !strings.HasPrefix(v, " ") {
			return nil, fmt.Errorf("%s: bad %s line %q", f.Magic, tag, values[i])
		}
		values[i] = v[1:]
	}
	return values, nil
}

// Checksum is the CRC32-IEEE every durable file carries: the trailer of a
// Format record and of a frontier page, and the digest a checkpoint
// manifest records for its interner blob.
func Checksum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }
