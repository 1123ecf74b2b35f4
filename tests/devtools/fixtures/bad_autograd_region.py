"""REP004 fixture: a basic-index adjoint and a shared adjoint helper
accumulating into non-parents."""


class Tensor:
    @staticmethod
    def _result(data, parents, op, backward=None):
        return data


def good_slice(x, index):  # no findings: the region receiver is a parent
    out = x[index]

    def backward(g):
        x._accumulate_region(index, g)

    return Tensor._result(out, (x,), "getitem", backward)


def slice_of_other(x, base, index):
    out = base[index]

    def backward(g):
        base._accumulate_region(index, g)  # REP004: base is not a parent

    return Tensor._result(out, (x,), "getitem", backward)


def _matmul_adjoint(a, b, g):
    a._accumulate(g)
    b._accumulate(g)


def good_linear(x, weight):  # no findings: both helper receivers are parents
    out = x @ weight

    def backward(g):
        _matmul_adjoint(x, weight, g)

    return Tensor._result(out, (x, weight), "linear", backward)


def linear_of_other(x, weight, other):
    out = x @ weight

    def backward(g):
        _matmul_adjoint(x, other, g)  # REP004: other is not a parent

    return Tensor._result(out, (x, weight), "linear", backward)
