package codec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: RLE round-trips arbitrary byte strings.
func TestRLERoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		encoded := rleAppend(nil, data)
		decoded, err := rleDecode(encoded, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(decoded, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRLERoundTrip checks the v1 entropy coder against arbitrary inputs.
func FuzzRLERoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xAB}, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		enc := rleAppend(nil, data)
		dec, err := rleDecode(enc, len(data))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatal("round trip mismatch")
		}
	})
}

func BenchmarkRLEWorstCase(b *testing.B) {
	// Alternating bytes defeat run-length coding: the compression floor.
	data := make([]byte, 1<<16)
	for i := range data {
		data[i] = byte(i % 2 * 255)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		out := rleAppend(nil, data)
		if i == 0 {
			b.ReportMetric(float64(len(out))/float64(len(data)), "expansion")
		}
	}
}

func TestHasZeroByte(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		v := rng.Uint64()
		if i%4 == 0 { // force a zero lane in a quarter of the probes
			v &^= uint64(0xFF) << (8 * uint(rng.Intn(8)))
		}
		want := false
		for l := uint(0); l < 64; l += 8 {
			if byte(v>>l) == 0 {
				want = true
			}
		}
		if got := hasZeroByte(v); got != want {
			t.Fatalf("hasZeroByte(%#x) = %v, want %v", v, got, want)
		}
	}
}

// Reference byte-loop run scanners, as rleAppend used before the word-wide
// versions. The kernels must preserve these token boundaries exactly —
// that is what keeps the new bitstream byte-identical to the old one.
func refZeroRunEnd(data []byte, i int) int {
	for i < len(data) && data[i] == 0 {
		i++
	}
	return i
}

func refLiteralRunEnd(data []byte, i int) int {
	zeros := 0
	for i < len(data) {
		if data[i] == 0 {
			zeros++
			if zeros >= minZeroRun {
				return i - (zeros - 1)
			}
		} else {
			zeros = 0
		}
		i++
	}
	return len(data)
}

func TestRunScannersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		data := make([]byte, n)
		for i := range data {
			// Heavily zero-biased so runs of every length appear.
			if rng.Intn(3) > 0 {
				data[i] = 0
			} else {
				data[i] = byte(1 + rng.Intn(255))
			}
		}
		for i := 0; i <= n; i++ {
			if i < n && data[i] == 0 {
				if got, want := zeroRunEnd(data, i), refZeroRunEnd(data, i); got != want {
					t.Fatalf("zeroRunEnd(%v, %d) = %d, want %d", data, i, got, want)
				}
			}
			if got, want := literalRunEnd(data, i), refLiteralRunEnd(data, i); got != want {
				t.Fatalf("literalRunEnd(%v, %d) = %d, want %d", data, i, got, want)
			}
		}
	}
}
