module odr/bench

go 1.22

require odr v0.0.0

replace odr => ../
