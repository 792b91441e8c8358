package pager

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecodePage feeds arbitrary bytes to the topocon-page1 framing
// decoder: every input must yield an error or a payload that encodePage
// frames back into the identical bytes — never a panic. Most mutations
// break the trailing checksum first, so each input is also tried with its
// checksum repaired, which lets the mutation reach the framing checks
// behind it.
func FuzzDecodePage(f *testing.F) {
	f.Add("round-001", encodePage("round-001", []byte{3, 2, 12, 0, 1, 7}))
	f.Add("round-002", encodePage("round-002", nil))
	f.Add("round-003", encodePage("round-004", []byte("payload")))
	f.Add("p", []byte(pageMagic+"\x01p\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, id string, data []byte) {
		roundTrip := func(data []byte) {
			payload, err := decodePage(id, data)
			if err != nil {
				return
			}
			if out := encodePage(id, payload); !bytes.Equal(out, data) {
				t.Fatalf("decode/encode not byte-identical:\n in  %x\n out %x", data, out)
			}
		}
		roundTrip(data)
		if len(data) >= 4 {
			body := append([]byte(nil), data[:len(data)-4]...)
			roundTrip(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
		}
	})
}
