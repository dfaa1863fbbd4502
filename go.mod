module lmas

go 1.23
