module github.com/neuroscaler/neuroscaler/cmd/nsbench

go 1.22

require github.com/neuroscaler/neuroscaler v0.0.0

replace github.com/neuroscaler/neuroscaler => ../..
