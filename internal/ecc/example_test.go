package ecc_test

import (
	"fmt"

	"repro/internal/ecc"
)

// Example shows SEC-DED behaviour under increasing corruption: one flip is
// corrected, two are detected.
func Example() {
	const data = 0xDEADBEEF
	check := ecc.Encode(data)
	got, _, res := ecc.Decode(data^1<<7, check)
	fmt.Printf("1 flip: %v, data restored: %v\n", res, got == data)

	_, _, res = ecc.Decode(data^1<<7^1<<40, check)
	fmt.Printf("2 flips: %v\n", res)
	// Output:
	// 1 flip: corrected, data restored: true
	// 2 flips: uncorrectable
}
