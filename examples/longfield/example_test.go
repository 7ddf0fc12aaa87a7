package main

// Example runs the program: everything it prints comes from the simulated
// volume's cost model, not from a clock, so the output is exact.
func Example() {
	main()
	// Output: published article: 132 KB
	// editorial pass committed: 132 KB
	// vandal aborted: content restored = true
	// ingested 5 drafts, a commit each (8192 bytes of log in use)
	// -- simulated power failure --
	// recovered store: 6 objects
	//   articles/draft-0           20480 bytes
	//   articles/draft-1           20480 bytes
	//   articles/draft-2           20480 bytes
	//   articles/draft-3           20480 bytes
	//   articles/draft-4           20480 bytes
	//   articles/eos-review       135345 bytes
	// redo recovery verified: every commit survived, store check OK
}
