package main

// Example runs the program: everything it prints comes from the simulated
// volume's cost model, not from a clock, so the output is exact.
func Example() {
	main()
	// Output: document of 8192 x 256-byte records, 400 random record edits
	//
	// T=1   edits:   778 pages moved,  367 seeks | scan:  632 seeks, 19146.90ms | segments  660, util 91.5%
	// T=8   edits:  6336 pages moved,  385 seeks | scan:  226 seeks, 9107.70ms | segments  232, util 96.2%
	// T=32  edits: 23418 pages moved,  454 seeks | scan:   89 seeks, 5702.10ms | segments   97, util 98.4%
	//
	// larger T: edits move more pages, but the document stays clustered and scans stay fast (§4.4)
}
