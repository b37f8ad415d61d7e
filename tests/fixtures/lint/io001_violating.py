"""IO001 violating fixture: every spelling of loading executable bytes."""

import marshal
import pickle
import pickle as pk
import shelve
from pickle import loads as decode


def read_everything(path, blob, handle):
    a = pickle.loads(blob)
    b = pickle.load(handle)
    c = pickle.Unpickler(handle).load()
    d = pk.loads(blob)
    e = decode(blob)
    f = marshal.loads(blob)
    g = marshal.load(handle)
    with shelve.open(path) as db:
        h = dict(db)
    return a, b, c, d, e, f, g, h
