// Command bench stands in for a separate module nested in the tree: the
// loader never type-checks it, so its references come from a plain parse.
package main

import (
	"fmt"

	corpus "predstream/internal/analysis/testdata/unused/lib"
)

func main() { fmt.Println(corpus.UsedByBench()) }
