package geometry_test

import (
	"fmt"

	"repro/internal/geometry"
)

// Example shows the evaluation server's derived DRAM organization.
func Example() {
	g := geometry.Default()
	fmt.Println(g)
	// One subarray group per subarray index of the socket's banks.
	fmt.Printf("subarray groups per socket: %d\n", g.SubarraysPerBank())
	// Output:
	// 2 sockets x 6 DIMMs x 2 ranks x 16 banks; 192 banks/socket; 192 GiB/socket; 1024-row subarrays; 1.50 GiB subarray groups
	// subarray groups per socket: 128
}
