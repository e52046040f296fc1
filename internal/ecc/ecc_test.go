package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// checkBits is the number of redundancy bits Encode produces per word.
const checkBits = 8

// testWords are the data words the exhaustive single- and double-flip
// tests run over: all zeros, all ones, and two irregular patterns.
var testWords = []uint64{0, ^uint64(0), 0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF}

func TestNoErrorDecodesOK(t *testing.T) {
	f := func(data uint64) bool {
		check := Encode(data)
		got, gotCheck, res := Decode(data, check)
		return got == data && gotCheck == check && res == OK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSingleDataBitErrorsCorrected(t *testing.T) {
	for _, data := range testWords {
		check := Encode(data)
		for b := 0; b < DataBits; b++ {
			got, gotCheck, res := Decode(data^1<<b, check)
			if got != data || gotCheck != check || res != Corrected {
				t.Errorf("%#x, data bit %d: got %#x/%#x, %v; want the original, Corrected", data, b, got, gotCheck, res)
			}
		}
	}
}

func TestSingleCheckBitErrorsCorrected(t *testing.T) {
	for _, data := range testWords {
		check := Encode(data)
		for b := 0; b < checkBits; b++ {
			got, gotCheck, res := Decode(data, check^1<<b)
			if got != data || gotCheck != check || res != Corrected {
				t.Errorf("%#x, check bit %d: got %#x/%#x, %v; want the original, Corrected", data, b, got, gotCheck, res)
			}
		}
	}
}

// The pair Decode returns on a correction is the repaired storage: decoding
// it again is clean.
func TestCorrectionRepairsStorage(t *testing.T) {
	data := uint64(0x0123456789ABCDEF)
	fixed, fixedCheck, res := Decode(data^1<<17, Encode(data))
	if res != Corrected {
		t.Fatal("first decode should correct")
	}
	if _, _, res := Decode(fixed, fixedCheck); res != OK {
		t.Error("second decode should be clean after the repair")
	}
}

func TestDoubleBitErrorsDetected(t *testing.T) {
	for _, data := range testWords {
		check := Encode(data)
		for x := 0; x < DataBits; x++ {
			for y := x + 1; y < DataBits; y++ {
				stored := data ^ 1<<x ^ 1<<y
				got, gotCheck, res := Decode(stored, check)
				if res != Uncorrectable || got != stored || gotCheck != check {
					t.Fatalf("%#x, data bits %d+%d: got %#x/%#x, %v; want the stored word, Uncorrectable", data, x, y, got, gotCheck, res)
				}
			}
		}
	}
}

func TestDoubleErrorDataPlusCheckDetected(t *testing.T) {
	data := uint64(0xFFFF0000FFFF0000)
	check := Encode(data)
	for cb := 0; cb < checkBits; cb++ {
		if _, _, res := Decode(data^1<<3, check^1<<cb); res != Uncorrectable {
			t.Errorf("data+check(%d) double error: got %v, want Uncorrectable", cb, res)
		}
	}
}

func TestTripleErrorsCanMiscorrect(t *testing.T) {
	// §2.5 / [25]: malicious workloads can induce uncorrected flips
	// despite ECC. With 3 flipped bits the syndrome can alias to a
	// single-bit error and silently miscorrect. Verify at least one
	// triple produces silent corruption (res != Uncorrectable with wrong
	// data).
	rng := rand.New(rand.NewSource(42))
	miscorrected := false
	for trial := 0; trial < 2000 && !miscorrected; trial++ {
		data := rng.Uint64()
		stored := data
		for _, b := range rng.Perm(DataBits)[:3] {
			stored ^= 1 << b
		}
		got, _, res := Decode(stored, Encode(data))
		if res != Uncorrectable && got != data {
			miscorrected = true
		}
	}
	if !miscorrected {
		t.Error("no triple-bit miscorrection observed; ECC model too strong")
	}
}

func TestResultString(t *testing.T) {
	for r, want := range map[Result]string{OK: "ok", Corrected: "corrected", Uncorrectable: "uncorrectable", Result(99): "invalid"} {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
}
