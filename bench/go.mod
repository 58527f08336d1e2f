module marion/bench

go 1.22

require marion v0.0.0

replace marion => ../
