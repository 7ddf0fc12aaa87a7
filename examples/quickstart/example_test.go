package main

// Example runs the program: everything it prints comes from the simulated
// volume's cost model, not from a clock, so the output is exact.
func Example() {
	main()
	// Output: created 10 MB object: reads=0 writes=1 pagesIn=0 pagesOut=2560 seeks=1 time=4376.30ms
	// segments=1 dataPages=2560 indexPages=0 height=1 utilization=100.0%
	// full sequential read: reads=1 writes=0 pagesIn=2560 pagesOut=0 seeks=1 time=4376.30ms
	// random 4 KB read at 7 MB: reads=1 writes=0 pagesIn=1 pagesOut=0 seeks=1 time=26.00ms
	// small middle insert:  reads=1 writes=0 pagesIn=7 pagesOut=0 seeks=1 time=36.20ms
	// 1 MB middle delete:   reads=0 writes=0 pagesIn=0 pagesOut=0 seeks=0 time=0.00ms
	// in-place replace:     reads=1 writes=0 pagesIn=1 pagesOut=0 seeks=1 time=26.00ms
	// final size: 9437212 bytes
	// store check: OK
}
