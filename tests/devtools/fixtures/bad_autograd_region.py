"""REP004 fixture: a basic-index adjoint accumulating into a non-parent."""


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
