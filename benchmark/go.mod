module gridmdo/benchmark

go 1.22

require gridmdo v0.0.0

replace gridmdo => ../
