// Package ecc implements the SEC-DED (single-error-correct, double-error-
// detect) memory protection used on server DIMMs (§2.5), as an extended
// Hamming(72,64) code over 64-bit words.
//
// The model reproduces the properties that matter for Rowhammer defenses:
//
//   - single bit flips are silently corrected, but corrections are
//     observable events (the correctable-error side channel of [86] and the
//     detection signal Copy-on-Flip builds on);
//   - double flips are detected but not corrected (machine-check surface);
//   - triple flips can alias to a "correctable" syndrome and miscorrect,
//     producing silent data corruption — the ECC bypass of [25].
package ecc

import "math/bits"

// codeword layout: positions 1..71 hold parity bits at the powers of two
// (1, 2, 4, 8, 16, 32, 64) and the 64 data bits elsewhere; position 0 is the
// overall parity bit providing double-error detection.
const (
	// DataBits is the number of protected data bits per word.
	DataBits   = 64
	nPositions = 72
)

// dataPos[i] is the codeword position of data bit i; posData[p] is the data
// bit index at position p (or -1 for parity positions).
var (
	dataPos [DataBits]int
	posData [nPositions]int
)

func init() {
	for p := range posData {
		posData[p] = -1
	}
	i := 0
	for p := 1; p < nPositions && i < DataBits; p++ {
		if p&(p-1) == 0 { // power of two: parity position
			continue
		}
		dataPos[i] = p
		posData[p] = i
		i++
	}
	if i != DataBits {
		panic("ecc: codeword too short for 64 data bits")
	}
}

// Result classifies the outcome of decoding one word.
type Result int

const (
	// OK means the word carried no detectable error.
	OK Result = iota
	// Corrected means a single-bit error was detected and corrected. The
	// event is visible to the platform (correctable-error logging).
	Corrected
	// Uncorrectable means a multi-bit error was detected but cannot be
	// corrected; real platforms raise a machine check (§2.5).
	Uncorrectable
)

func (r Result) String() string {
	switch r {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Uncorrectable:
		return "uncorrectable"
	}
	return "invalid"
}

// Encode computes the 8 check bits protecting data.
func Encode(data uint64) uint8 {
	var cw [nPositions]bool
	for i := 0; i < DataBits; i++ {
		cw[dataPos[i]] = data&(1<<i) != 0
	}
	var check uint8
	// Hamming parity bits p0..p6 at positions 1,2,4,...,64.
	for i := 0; i < 7; i++ {
		p := 1 << i
		parity := false
		for pos := 1; pos < nPositions; pos++ {
			if pos&p != 0 && cw[pos] {
				parity = !parity
			}
		}
		if parity {
			check |= 1 << i
			cw[p] = true
		}
	}
	// Overall parity (bit 7 of check, position 0) over all other bits.
	overall := false
	for pos := 1; pos < nPositions; pos++ {
		if cw[pos] {
			overall = !overall
		}
	}
	if overall {
		check |= 1 << 7
	}
	return check
}

// Decode checks (and if possible corrects) a stored word against its check
// bits. It returns the corrected data, corrected check bits, and the result
// classification. On Uncorrectable the data is returned as stored.
//
// Note that ≥3-bit errors may alias to OK or Corrected with wrong data;
// this miscorrection behaviour is intentional (see package comment).
func Decode(data uint64, check uint8) (uint64, uint8, Result) {
	var cw [nPositions]bool
	for i := 0; i < DataBits; i++ {
		cw[dataPos[i]] = data&(1<<i) != 0
	}
	for i := 0; i < 7; i++ {
		cw[1<<i] = check&(1<<i) != 0
	}
	cw[0] = check&(1<<7) != 0

	// Syndrome: XOR of positions of set bits (excluding position 0).
	syndrome := 0
	for pos := 1; pos < nPositions; pos++ {
		if cw[pos] {
			syndrome ^= pos
		}
	}
	// Recompute overall parity across the whole codeword.
	ones := 0
	for pos := 0; pos < nPositions; pos++ {
		if cw[pos] {
			ones++
		}
	}
	overallOK := ones%2 == 0

	switch {
	case syndrome == 0 && overallOK:
		return data, check, OK
	case syndrome == 0 && !overallOK:
		// Error in the overall parity bit itself.
		return data, check ^ 1<<7, Corrected
	case syndrome != 0 && !overallOK:
		// Single-bit error at position syndrome.
		if syndrome >= nPositions {
			return data, check, Uncorrectable
		}
		if d := posData[syndrome]; d >= 0 {
			return data ^ 1<<d, check, Corrected
		}
		// Error in a Hamming parity bit.
		return data, check ^ uint8(1<<bits.TrailingZeros(uint(syndrome))), Corrected
	default: // syndrome != 0 && overallOK
		return data, check, Uncorrectable
	}
}
