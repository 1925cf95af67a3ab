module potgo/bench

go 1.22

require potgo v0.0.0

replace potgo => ../
