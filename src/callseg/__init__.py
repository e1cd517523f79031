"""Call-center audio segment classification.

Log-mel feature extraction, a from-scratch convolutional-recurrent
classifier (GRU or LSTM) for the 2-class customer/agent and 4-class
gender-extended problems, database-based corpus annotation, Adam training
with early stopping, and sliding-window per-speaker call analysis.
"""

from .analyze import (
    CallAnalysis,
    SpeakerStream,
    SpeakerVerdict,
    aggregate_speaker,
    analyze_call,
    build_speaker_streams,
    sliding_windows,
    window_count,
)
from .audio import AudioBuffer, load_audio, save_wav
from .dbas import (
    CallMetadata,
    CorpusManifest,
    SegmentAnnotation,
    Utterance,
    class_label_of,
    consistency_filter,
    cut_utterances,
    dbas_label,
    filter_calls,
    prepare_corpus,
    write_corpus,
)
from .features import (
    MelSpectrogram,
    load_features,
    log_mel_spectrogram,
    mel_filterbank,
    save_features,
)
from .gradcheck import gradient_check
from .layers import cross_entropy, softmax
from .metrics import ClassScores, accuracy, class_scores, confusion
from .model import (
    CrnnModel,
    ModelConfig,
    build_crnn,
    label_names,
    load_checkpoint,
    save_checkpoint,
)
from .optim import AdamState, adam_step
from .recurrent import GRULayer, LSTMLayer
from .synth import SynthSpec, speaker_voice, synth_call, synth_corpus, synth_speech
from .training import TrainConfig, TrainHistory, evaluate, scan_corpus, train

__version__ = "0.1.0"
