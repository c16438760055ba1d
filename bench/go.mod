module ironfs/bench

go 1.22

require ironfs v0.0.0

replace ironfs => ../
