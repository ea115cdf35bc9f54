module voltage/benchmark

go 1.22

require voltage v0.0.0

replace voltage => ../
