package proto_test

import (
	"fmt"

	"nds/internal/proto"
)

// ExampleLayout_Capacity prints how many records one result page holds
// over a 512×512 tile at each value width: the capacity table DESIGN.md
// ("Wire format: one size function") carries.
func ExampleLayout_Capacity() {
	widths := []int{0, 7, 8, 16, 32, 64}
	fmt.Print("| value bits |")
	for _, v := range widths {
		fmt.Printf(" %d |", v)
	}
	fmt.Println("\n|---|---|---|---|---|---|---|")
	for _, row := range []struct {
		name string
		op   proto.Opcode
	}{{"scan", proto.OpScan}, {"reduce top-k", proto.OpReduce}} {
		fmt.Printf("| %s |", row.name)
		for _, v := range widths {
			l := proto.LayoutFor(8, []int64{512, 512}, 0, uint64(1)<<v-1) // v-bit values
			fmt.Printf(" %d |", l.Capacity(row.op))
		}
		fmt.Println()
	}
	// Output:
	// | value bits | 0 | 7 | 8 | 16 | 32 | 64 |
	// |---|---|---|---|---|---|---|
	// | scan | 4068 | 2035 | 1908 | 1272 | 769 | 433 |
	// | reduce top-k | 4059 | 2031 | 1904 | 1269 | 768 | 432 |
}
