package subarray_test

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/geometry"
	"repro/internal/subarray"
)

// Example computes the boot-time subarray group layout for the evaluation
// server and looks up the group owning a physical address.
func Example() {
	g := geometry.Default()
	mapper, err := addr.NewSkylakeMapper(g)
	if err != nil {
		panic(err)
	}
	layout, err := subarray.NewLayout(g, mapper, addr.AllTransforms())
	if err != nil {
		panic(err)
	}
	// A physical address decodes to a media row; the row's index in its bank
	// names the group on that socket.
	ma, err := mapper.Decode(4 * geometry.GiB)
	if err != nil {
		panic(err)
	}
	grp := layout.Group(ma.Bank.Socket, ma.Row/layout.RowsPerGroup())
	fmt.Printf("groups/socket: %d of %.1f GiB\n", layout.GroupsPerSocket(), float64(layout.GroupBytes())/(1<<30))
	fmt.Printf("pa 4GiB -> socket %d, group %d (rows %d-%d)\n", grp.Socket, grp.Index, grp.FirstRow, grp.LastRow)
	// Output:
	// groups/socket: 128 of 1.5 GiB
	// pa 4GiB -> socket 0, group 5 (rows 5120-6143)
}
