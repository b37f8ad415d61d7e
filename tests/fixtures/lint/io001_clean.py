"""IO001 clean fixture: writing pickles and decoding data formats."""

import json
import pickle
from array import array


def loads(text):
    return json.loads(text)


def write(obj):
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def read(blob, text):
    packed = array("I")
    packed.frombytes(blob)
    return loads(text), packed
