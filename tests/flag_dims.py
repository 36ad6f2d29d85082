"""The k-dimensions of the flag levels of a datum of shape (e, h1, d1),
read off the levels' definitions in hasseforge.flags: the tests compare
the built submodules against them."""


def extended_dim(params, j: int) -> int:
    if j <= params.e:
        return j * params.d1
    s = j - params.e
    return s * params.h1 + (params.e - s) * params.d1


def conj_dim(params, j: int) -> int:
    if j <= params.e:
        return j * (params.h1 - params.d1)
    return params.e * (params.h1 - params.d1) + (j - params.e) * params.d1


def aux_dim(params, j: int) -> int:
    return params.h1 + j * params.d1
