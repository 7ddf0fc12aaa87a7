package main

// Example runs the program: everything it prints comes from the simulated
// volume's cost model, not from a clock, so the output is exact.
func Example() {
	main()
	// Output: ingested 20 s clip: 16 MB in 13 segments, utilization 100.0%
	// playback (pristine):          480 frames,     9 seeks,   4320 pages,  15.76ms/frame (real-time OK)
	// after edits: 15 segments, utilization 100.0%
	// playback (after edits):       456 frames,    11 seeks,   4104 pages,  15.89ms/frame (real-time OK)
	// 5 random frame seeks: 6 seeks, 45 pages, 222.30ms total
	// store check: OK
}
