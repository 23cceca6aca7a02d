// Command bench stands in for a separate module nested in the tree: the
// loader never type-checks it, so its references come from a plain parse.
package main

import (
	"fmt"

	corpus "unusedcorpus/internal/lib"
)

func main() {
	var t corpus.T
	fmt.Println(corpus.UsedByBench(), t.Benched(), corpus.Config{Benched: 1})
}
